package cluster

// Unit tests for the self-healing primitives (backoff, breaker) and
// the startup-order regression: a daemon started before its directory
// must come up as soon as the directory does, within JoinWait.

import (
	"net"
	"testing"
	"time"
)

// TestBackoffBounds: exponential growth from retryBase, capped at
// retryMax, with full jitter in [1/2, 1].
func TestBackoffBounds(t *testing.T) {
	high := func() float64 { return 1.0 }
	low := func() float64 { return 0.0 }
	if got := backoff(0, high); got != retryBase {
		t.Fatalf("backoff(0) = %v, want retryBase", got)
	}
	if got := backoff(2, high); got != 4*retryBase {
		t.Fatalf("backoff(2) = %v, want 4*retryBase", got)
	}
	for attempt := 3; attempt < 20; attempt++ {
		if got := backoff(attempt, high); got > retryMax {
			t.Fatalf("backoff(%d) = %v escapes retryMax %v", attempt, got, retryMax)
		}
	}
	if got := backoff(10, high); got != retryMax {
		t.Fatalf("backoff(10) = %v, want retryMax", got)
	}
	if got := backoff(0, low); got != retryBase/2 {
		t.Fatalf("fully-jittered backoff(0) = %v, want retryBase/2", got)
	}
}

// TestBreakerLifecycle walks the closed -> open -> half-open -> closed
// cycle.
func TestBreakerLifecycle(t *testing.T) {
	b := &breaker{}
	now := time.Now()
	b.failure(now)
	b.failure(now)
	if w := b.wait(now); w != 0 {
		t.Fatalf("breaker opened before the threshold: wait %v", w)
	}
	b.failure(now) // third consecutive failure (breakerThreshold) trips it
	if w := b.wait(now); w <= 0 {
		t.Fatal("breaker did not open at the threshold")
	}
	probe := now.Add(breakerCooldown)
	if w := b.wait(probe); w != 0 {
		t.Fatalf("cooldown elapsed but breaker still open: wait %v", w)
	}
	// A failed half-open probe re-opens immediately.
	b.failure(probe)
	if w := b.wait(probe); w <= 0 {
		t.Fatal("failed half-open probe did not re-open the breaker")
	}
	// A successful probe closes it and resets the failure streak.
	b.success()
	if w := b.wait(probe.Add(time.Nanosecond)); w != 0 {
		t.Fatal("success did not close the breaker")
	}
	b.failure(probe)
	b.failure(probe)
	if w := b.wait(probe); w != 0 {
		t.Fatal("success did not reset the consecutive-failure streak")
	}
}

// TestDaemonStartsBeforeDirectory: the startup-order regression. The
// daemon's registration loop must keep retrying within JoinWait and
// succeed the moment the directory starts listening.
func TestDaemonStartsBeforeDirectory(t *testing.T) {
	dir, err := NewDir(DirConfig{Nodes: 3, GroupSize: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Reserve a port so the daemon knows the directory's address before
	// the directory exists.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dirAddr := lis.Addr().String()
	_ = lis.Close()

	type result struct {
		d   *Daemon
		err error
	}
	started := make(chan result, 1)
	go func() {
		d, err := StartDaemon(DaemonConfig{
			ID: 0, DirAddr: dirAddr,
			JoinWait: 10 * time.Second,
		})
		started <- result{d, err}
	}()

	// Hold the reversed order long enough that the daemon's first
	// attempts have certainly failed.
	time.Sleep(200 * time.Millisecond)
	select {
	case r := <-started:
		t.Fatalf("daemon gave up before the directory existed: %+v, %v", r.d, r.err)
	default:
	}
	if err := dir.Start(dirAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dir.Close() })

	r := <-started
	if r.err != nil {
		t.Fatalf("daemon did not survive starting before the directory: %v", r.err)
	}
	t.Cleanup(func() { _ = r.d.Close() })
	if dir.Members() != 1 {
		t.Fatalf("members = %d after the late join, want 1", dir.Members())
	}
}

// TestSingleAttemptJoinStillFails guards the zero default: without
// JoinWait a daemon started before its directory fails fast, the
// pre-existing contract.
func TestSingleAttemptJoinStillFails(t *testing.T) {
	start := time.Now()
	_, err := StartDaemon(DaemonConfig{ID: 0, DirAddr: "127.0.0.1:1", Timeout: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("daemon started with no directory and no join window")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("single-attempt join took %v", elapsed)
	}
}
