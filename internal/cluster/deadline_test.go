package cluster

// Regression tests for the per-I/O deadline discipline: a
// slow-but-progressing multi-frame contact may run longer than Timeout
// (the deadline refreshes on every read and write), while a stalled
// connection is still torn down within it. The old behavior armed one
// absolute deadline per connection phase, so any contact whose total
// wall time exceeded Timeout was killed mid-stream and its custody
// needlessly re-offered.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
)

// throttledProxy forwards both directions of each accepted connection
// to addr in small chunks with a pause per chunk, making every frame
// slow to cross while individual reads keep arriving well within any
// reasonable deadline. It returns the proxy's listen address.
func throttledProxy(t *testing.T, addr string, chunk int, pause time.Duration) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	conns := make(map[net.Conn]struct{})
	track := func(c net.Conn) {
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				_ = down.Close()
				continue
			}
			track(down)
			track(up)
			pipe := func(dst, src net.Conn) {
				defer wg.Done()
				buf := make([]byte, chunk)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						time.Sleep(pause)
						if _, werr := dst.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				// Tear down both halves so the opposite pipe unblocks.
				_ = dst.Close()
				_ = src.Close()
			}
			wg.Add(2)
			go pipe(up, down)
			go pipe(down, up)
		}
	}()
	t.Cleanup(func() {
		_ = lis.Close()
		mu.Lock()
		for c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return lis.Addr().String()
}

// TestSlowContactSurvivesTimeout drives a multi-frame contact through
// a throttled pipe so its total duration exceeds the daemons' Timeout.
// Every offer must still be transferred: progress refreshes the
// deadline.
func TestSlowContactSurvivesTimeout(t *testing.T) {
	const timeout = 400 * time.Millisecond
	c, err := Launch(Config{Nodes: 3, GroupSize: 1, Seed: 31, Spray: true, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	d0, d1 := c.Daemon(0), c.Daemon(1)

	// Six 3-copy spray messages: every one is eligible for node 1, so
	// the contact carries six offer/verdict round trips plus framing.
	const msgs = 6
	for i := 0; i < msgs; i++ {
		spec := node.SendSpec{
			Dst: 2, Payload: []byte("slow but steady"), Relays: 1, Copies: 3,
			ID: fmt.Sprintf("%032x", 0x50+i),
		}
		if _, err := d0.Send(spec, PathStream(31, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Each onion frame crosses the pipe in 64-byte chunks at 25 ms
	// apiece, so a single offer takes longer than 100 ms and six round
	// trips comfortably outlast the 400 ms Timeout — while every
	// individual read arrives within 25 ms.
	proxyAddr := throttledProxy(t, d1.Addr(), 64, 25*time.Millisecond)
	start := time.Now()
	rep, err := d0.Contact(1, proxyAddr, 1)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow contact failed after %v: %v (report %+v)", elapsed, err, rep)
	}
	if elapsed <= timeout {
		t.Skipf("contact finished in %v <= Timeout %v: pipe not slow enough to exercise the regression", elapsed, timeout)
	}
	if rep.Transfers != msgs {
		t.Fatalf("transfers = %d, want %d (contact of %v was cut short)", rep.Transfers, msgs, elapsed)
	}
}

// TestStalledConnectionTimesOut: per-I/O refresh must not mean "never
// times out" — a peer that opens a contact and then goes silent is
// torn down within the I/O deadline.
func TestStalledConnectionTimesOut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	c, err := Launch(Config{Nodes: 3, GroupSize: 1, Seed: 33, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// List one unseen offer so the hello ack does not end the contact.
	conn, ack := rawHello(t, c.Daemon(1).Addr(), 0, 1, 0, fmt.Sprintf("%032x", 0x300))
	if ack.Done {
		t.Fatalf("hello ack ended the contact: %+v", ack)
	}
	// Stall: never send the offer. The daemon's read deadline must fire
	// and close the connection; we observe the close as EOF/reset.
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(10 * timeout))
	if _, err := io.ReadAll(conn); err != nil && time.Since(start) >= 10*timeout {
		t.Fatalf("daemon never closed the stalled connection: %v", err)
	}
	if waited := time.Since(start); waited > 5*timeout {
		t.Fatalf("stalled connection lived %v, want teardown within ~%v", waited, timeout)
	}
}

// TestContactBudgetCapsTrickle: per-I/O deadline refresh treats any
// progress as liveness, so a peer trickling one byte per second could
// pin a contact forever. ContactBudget clamps every refreshed deadline
// to a per-connection wall cap, bounding the whole contact.
func TestContactBudgetCapsTrickle(t *testing.T) {
	const budget = 700 * time.Millisecond
	c, err := Launch(Config{
		Nodes: 3, GroupSize: 1, Seed: 37, Spray: true,
		Timeout:       5 * time.Second,
		ContactBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	d0 := c.Daemon(0)
	spec := node.SendSpec{Dst: 2, Payload: []byte("trickle"), Relays: 1, Copies: 3, ID: fmt.Sprintf("%032x", 0x200)}
	if _, err := d0.Send(spec, PathStream(37, 0)); err != nil {
		t.Fatal(err)
	}

	// One byte per second: each byte refreshes the 5s I/O deadline, so
	// without the wall cap the hello ack alone would take ~7s and the
	// contact would still "succeed" eventually.
	proxyAddr := throttledProxy(t, c.Daemon(1).Addr(), 1, time.Second)
	start := time.Now()
	// One attempt, without Contact's preamble retries: the point is the
	// cap, not the recovery.
	_, _, err = d0.contactOnce(1, proxyAddr, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("one-byte-per-second contact completed (%v) despite a %v budget", elapsed, budget)
	}
	if elapsed > 3*budget {
		t.Fatalf("contact lived %v, want teardown within ~%v", elapsed, budget)
	}
}

// TestClusterRefusalChargesReofferBudget: a buffer-full verdict over
// the wire charges the sender's re-offer budget; once exhausted the
// copy is dropped (BackpressureDropped) instead of re-offered forever.
func TestClusterRefusalChargesReofferBudget(t *testing.T) {
	c, err := Launch(Config{
		Nodes: 3, GroupSize: 1, Seed: 35, Spray: true,
		BufferLimit: 1, ReofferLimit: 2, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	d0, d1 := c.Daemon(0), c.Daemon(1)

	const msgs = 4
	for i := 0; i < msgs; i++ {
		spec := node.SendSpec{
			Dst: 2, Payload: []byte("pressure"), Relays: 1, Copies: 3,
			ID: fmt.Sprintf("%032x", 0x100+i),
		}
		if _, err := d0.Send(spec, PathStream(35, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Contact 1: node 1 accepts one copy and refuses the rest.
	rep, err := d0.Contact(1, d1.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 1 || rep.Rejected != msgs-1 {
		t.Fatalf("first contact = %+v, want 1 transfer and %d rejections", rep, msgs-1)
	}
	if got := d0.Node().Stats().BackpressureDropped; got != 0 {
		t.Fatalf("dropped %d copies after one refusal, want 0", got)
	}
	// Contact 2: the refusals repeat and the budget of 2 is exhausted.
	if _, err := d0.Contact(1, d1.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	if got := d0.Node().Stats().BackpressureDropped; got != msgs-1 {
		t.Fatalf("BackpressureDropped = %d, want %d", got, msgs-1)
	}
	// Only the accepted message's spare spray tickets remain in
	// custody; the hopeless copies are gone.
	if got := d0.Node().BufferLen(); got != 1 {
		t.Fatalf("sender buffer = %d onions, want 1 after backpressure drops", got)
	}
	// Contact 3: the peer's hello ack flags the surviving copy seen, so
	// it is not offered at all — as in Network.Meet. It stays in
	// custody and its re-offer budget is not charged.
	rep, err = d0.Contact(1, d1.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != 0 || rep.Rejected != 0 {
		t.Fatalf("third contact = %+v, want no offer of a copy the peer has seen", rep)
	}
	if got := d0.Node().BufferLen(); got != 1 {
		t.Fatalf("sender buffer = %d onions after a skipped offer, want 1", got)
	}
	if got := d0.Node().Stats().BackpressureDropped; got != msgs-1 {
		t.Fatalf("skipped offer charged the re-offer budget: dropped = %d", got)
	}
}
