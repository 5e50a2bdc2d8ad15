package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestPlanDeterministic: the plan is a pure function of (seed, nodes)
// and serializes byte-identically — the replay artifact contract.
func TestPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 5).JSON()
	b := NewPlan(42, 5).JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", a, b)
	}
	c := NewPlan(43, 5).JSON()
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestPlanBytesPinned: the plan's JSON is pinned by SHA-256 at three
// (seed, nodes) points, so a change to any planning constant or to the
// draw order shows, not only a change between two runs of one build.
func TestPlanBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		nodes int
		want  string
	}{
		{42, 5, "6a154274d7c351ddff3cfd6b317663600687b509793a816aaf1a40d21adb23c2"},
		{43, 5, "246b2885d017b38886dd7d729c1a5a4a0da3f9aec42b9f76f7def7c4d75a73bf"},
		{42, 6, "65062d82a8467c184ef6816bc75741f0cae0204e5d52d1c0750f83e111b279c6"},
	} {
		sum := sha256.Sum256(NewPlan(tc.seed, tc.nodes).JSON())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("NewPlan(%d, %d).JSON() sha256 %s, want %s", tc.seed, tc.nodes, got, tc.want)
		}
	}
}

// TestPlanBounds: cut offsets stay inside the contact preamble, the
// first slot always injects, and partition windows fit their period.
func TestPlanBounds(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		p := NewPlan(seed, 6)
		if p.Slots[0].Kind == KindClean {
			t.Fatalf("seed %d: slot 0 is clean — a chaos run could inject nothing", seed)
		}
		for i, s := range p.Slots {
			if (s.Kind == KindReset || s.Kind == KindTear) && (s.CutAfter < 4 || s.CutAfter >= maxCut) {
				t.Fatalf("seed %d slot %d: cut at %d bytes escapes the hello preamble", seed, i, s.CutAfter)
			}
		}
		for i, w := range p.Partitions {
			if w.From == w.To || w.From < 0 || w.From >= 6 || w.To < 0 || w.To >= 6 {
				t.Fatalf("seed %d partition %d: bad pair %d->%d", seed, i, w.From, w.To)
			}
			if w.StartMs < 0 || w.EndMs <= w.StartMs || w.EndMs > p.PeriodMs {
				t.Fatalf("seed %d partition %d: window [%d,%d) escapes period %d", seed, i, w.StartMs, w.EndMs, p.PeriodMs)
			}
		}
		for i, b := range p.Blackouts {
			if b.StartFrac <= 0 || b.EndFrac >= 1 || b.EndFrac <= b.StartFrac {
				t.Fatalf("seed %d blackout %d: bad window [%v,%v)", seed, i, b.StartFrac, b.EndFrac)
			}
		}
	}
}

// TestRelentBound: after RelentAfter consecutive faulted grants to one
// address the next grant is forced clean — the convergence guarantee
// retry loops rely on.
func TestRelentBound(t *testing.T) {
	p := &Plan{
		Seed: 1, RelentAfter: 3, PeriodMs: 1000,
		Slots: []Slot{{Kind: KindReset, CutAfter: 8}}, // every planned slot faults
	}
	c := FromPlan(p)
	for i := 0; i < 3; i++ {
		if s := c.grant("a"); s.Kind == KindClean {
			t.Fatalf("grant %d: clean before the relent bound", i)
		}
	}
	if s := c.grant("a"); s.Kind != KindClean {
		t.Fatalf("grant after relent bound is %v, want clean", s.Kind)
	}
	// The streak reset means turbulence resumes afterwards.
	if s := c.grant("a"); s.Kind == KindClean {
		t.Fatal("turbulence did not resume after the forced-clean grant")
	}
}

// TestPartitionBlocksDialWithWaitHint: a partitioned dial fails with a
// BlockedError whose Wait covers the rest of the window.
func TestPartitionBlocksDialWithWaitHint(t *testing.T) {
	p := &Plan{
		Seed: 1, RelentAfter: 3, PeriodMs: 1 << 30, // one cycle far longer than the test
		Slots:      []Slot{{Kind: KindClean}},
		Partitions: []Partition{{From: 0, To: 1, StartMs: 0, EndMs: 1 << 29}},
	}
	c := FromPlan(p)
	_, err := c.DialPeer(0, 1, "unused", func(string) (net.Conn, error) {
		t.Fatal("dial ran despite the partition")
		return nil, nil
	})
	var blocked *BlockedError
	if !errors.As(err, &blocked) {
		t.Fatalf("err = %v, want BlockedError", err)
	}
	if blocked.Wait <= 0 {
		t.Fatalf("blocked dial carries no wait hint: %+v", blocked)
	}
	// The reverse direction is unaffected: asymmetric.
	dialed := false
	_, err = c.DialPeer(1, 0, "unused", func(string) (net.Conn, error) {
		dialed = true
		return nil, errors.New("stop here")
	})
	if !dialed {
		t.Fatalf("reverse direction blocked too: %v", err)
	}
}

// echoListener accepts one connection and echoes everything back.
func echoListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				_, _ = io.Copy(c, c)
				_ = c.Close()
			}(conn)
		}
	}()
	t.Cleanup(func() { _ = lis.Close() })
	return lis
}

func faultedDial(t *testing.T, addr string, slot Slot) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := newFaultConn(raw, slot)
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestFaultConnPreservesBytes: delay and throttle profiles reorder
// nothing and lose nothing.
func TestFaultConnPreservesBytes(t *testing.T) {
	lis := echoListener(t)
	payload := bytes.Repeat([]byte("turbulence"), 200)
	for _, slot := range []Slot{
		{Kind: KindDelay, DelayMs: 5},
		{Kind: KindThrottle, Bps: 1 << 20},
	} {
		conn := faultedDial(t, lis.Addr().String(), slot)
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("%v write: %v", slot.Kind, err)
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("%v read: %v", slot.Kind, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v corrupted the stream", slot.Kind)
		}
	}
}

// TestFaultConnCutsInPreamble: reset, tear, and stall all fail the
// dialer's first frame-sized write and kill the connection.
func TestFaultConnCutsInPreamble(t *testing.T) {
	lis := echoListener(t)
	hello := bytes.Repeat([]byte("h"), 40) // a typical hello frame exceeds every cut point
	for _, slot := range []Slot{
		{Kind: KindReset, CutAfter: 8},
		{Kind: KindTear, CutAfter: 8},
		{Kind: KindStall, StallMs: 10},
	} {
		conn := faultedDial(t, lis.Addr().String(), slot)
		n, err := conn.Write(hello)
		if err == nil || !errors.Is(err, ErrInjected) {
			t.Fatalf("%v write: n=%d err=%v, want ErrInjected", slot.Kind, n, err)
		}
		if n >= len(hello) {
			t.Fatalf("%v wrote the whole frame before failing", slot.Kind)
		}
	}
}

// TestProxyForwardsAndGoesDark: the proxy relays under clean profiles
// and refuses connections while dark.
func TestProxyForwardsAndGoesDark(t *testing.T) {
	lis := echoListener(t)
	ch := FromPlan(&Plan{Seed: 1, RelentAfter: 3, PeriodMs: 1000, Slots: []Slot{{Kind: KindClean}}})
	proxy, err := NewProxy(lis.Addr().String(), ch)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "ping" {
		t.Fatalf("proxy relay: %q, %v", got, err)
	}

	proxy.SetDark(true)
	dark, err := net.Dial("tcp", proxy.Addr())
	if err == nil {
		_ = dark.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := dark.Read(make([]byte, 1)); err == nil {
			t.Fatal("dark proxy still relays")
		}
		_ = dark.Close()
	}
}
