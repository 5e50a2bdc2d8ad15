package node

import (
	"errors"
	"testing"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/rng"
)

// TestTruncatedAtHeaderBoundaryRejected is the regression test for the
// satellite fix: a frame torn at exactly the header boundary — the
// header itself parses cleanly, but payload and CRC trailer are gone —
// must be rejected by the receive path, never silently accepted.
func TestTruncatedAtHeaderBoundaryRejected(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 10, GroupSize: 2, Seed: 5})
	if _, err := nw.Node(0).Send(SendSpec{Dst: 9, Payload: []byte("torn"), Relays: 1, Copies: 1}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	src := nw.Node(0)
	src.mu.Lock()
	var frame []byte
	for _, c := range src.buffer {
		var err error
		if frame, err = c.toBundle().Marshal(); err != nil {
			src.mu.Unlock()
			t.Fatal(err)
		}
	}
	src.mu.Unlock()
	if frame == nil {
		t.Fatal("no custody frame after Send")
	}
	torn := fault.Truncate(frame, bundle.HeaderSize)
	c, err := receiveFrame(torn)
	if err == nil {
		t.Fatalf("receiveFrame accepted a header-boundary tear as %+v", c)
	}
	if !errors.Is(err, bundle.ErrTruncated) {
		t.Fatalf("header-boundary tear classified %v, want bundle.ErrTruncated", err)
	}
	// Every other tear point is rejected too.
	for keep := 0; keep < len(frame); keep++ {
		if _, err := receiveFrame(fault.Truncate(frame, keep)); err == nil {
			t.Fatalf("receiveFrame accepted a tear at %d bytes", keep)
		}
	}
}

// TestTruncationAlwaysTornNeverTransfers drives a network where every
// hand-off tears and the retry budget is zero: nothing may ever change
// custody, and senders must keep theirs.
func TestTruncationAlwaysTornNeverTransfers(t *testing.T) {
	nw := testNetwork(t, Config{
		Nodes: 10, GroupSize: 2, Seed: 5,
		Faults: fault.Config{Truncate: 1, Retries: 0},
	})
	src := nw.Node(0)
	if _, err := src.Send(SendSpec{Dst: 9, Payload: []byte("torn"), Relays: 1, Copies: 1}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(10, 1, 10, rng.New(2))
	nw.DriveSynthetic(g, 5e4, rng.New(3), nil)
	stats := nw.TotalStats()
	if stats.Forwarded != 0 || stats.Delivered != 0 {
		t.Fatalf("custody moved under total truncation: %+v", stats)
	}
	if stats.Truncated == 0 {
		t.Fatal("no truncation ever recorded")
	}
	if src.BufferLen() != 1 {
		t.Fatalf("sender lost custody of its torn message: buffer %d", src.BufferLen())
	}
}

// TestTruncationRetriedInContact checks the retry path: with a
// mid-range tear probability and an in-contact retry budget, messages
// still arrive and the retransmission counters move.
func TestTruncationRetriedInContact(t *testing.T) {
	nw := testNetwork(t, Config{
		Nodes: 20, GroupSize: 4, Seed: 9,
		Faults: fault.Config{Truncate: 0.4, Retries: 4},
	})
	const msgs = 8
	ids := make([]string, msgs)
	for i := range ids {
		id, err := nw.Node(0).Send(SendSpec{Dst: 19, Payload: []byte("persist"), Relays: 2, Copies: 1}, rng.New(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	g := contact.NewRandom(20, 1, 10, rng.New(11))
	dst := nw.Node(19)
	nw.DriveSynthetic(g, 1e7, rng.New(12), func() bool { return dst.DeliveredCount() == msgs })
	for i, id := range ids {
		if _, ok := dst.Delivered(id); !ok {
			t.Fatalf("message %d lost under truncation with retries", i)
		}
	}
	stats := nw.TotalStats()
	if stats.Truncated == 0 || stats.Retried == 0 {
		t.Fatalf("retry path never exercised: %+v", stats)
	}
	if dst.Stats().Delivered != msgs {
		t.Fatalf("destination delivered %d times for %d messages", dst.Stats().Delivered, msgs)
	}
}

// TestCorruptionDroppedGracefully: with every hand-off flipped, no
// payload may ever reach an application layer, and the sender retains
// custody for later contacts (graceful drop, no in-contact retry).
func TestCorruptionDroppedGracefully(t *testing.T) {
	nw := testNetwork(t, Config{
		Nodes: 10, GroupSize: 2, Seed: 3,
		Faults: fault.Config{Corrupt: 1, Retries: 4},
	})
	src := nw.Node(0)
	if _, err := src.Send(SendSpec{Dst: 9, Payload: []byte("secret"), Relays: 1, Copies: 1}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(10, 1, 10, rng.New(2))
	nw.DriveSynthetic(g, 5e4, rng.New(3), nil)
	stats := nw.TotalStats()
	if stats.Delivered != 0 {
		t.Fatalf("corrupted bundle reached an application layer: %+v", stats)
	}
	if stats.Corrupted == 0 {
		t.Fatal("no corruption ever recorded")
	}
	// Most flips are classified as tamper and dropped without retry; a
	// flip inside the length field is indistinguishable from a tear on
	// the wire and may legitimately trigger retransmissions.
	if stats.Retried > stats.Corrupted {
		t.Fatalf("corruption retried more often than it was detected: %+v", stats)
	}
	if src.BufferLen() != 1 {
		t.Fatalf("sender lost custody under corruption: buffer %d", src.BufferLen())
	}
}

// TestDuplicateRedeliverySuppressed forces a duplicate on every
// successful hand-off: each message must still be delivered to the
// application layer exactly once.
func TestDuplicateRedeliverySuppressed(t *testing.T) {
	nw := testNetwork(t, Config{
		Nodes: 20, GroupSize: 4, Seed: 7,
		Faults: fault.Config{Duplicate: 1},
	})
	const msgs = 6
	for i := 0; i < msgs; i++ {
		if _, err := nw.Node(0).Send(SendSpec{Dst: 19, Payload: []byte("once"), Relays: 2, Copies: 1}, rng.New(uint64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	g := contact.NewRandom(20, 1, 10, rng.New(8))
	dst := nw.Node(19)
	nw.DriveSynthetic(g, 1e7, rng.New(9), func() bool { return dst.DeliveredCount() == msgs })
	if got := dst.Stats().Delivered; got != msgs {
		t.Fatalf("application layer delivered %d times for %d messages", got, msgs)
	}
	if nw.TotalStats().Duplicates == 0 {
		t.Fatal("no duplicate was ever suppressed at duplicate probability 1")
	}
}

// TestCrashDropsVolatileCustody: churn with volatile buffers loses
// custody; with PreserveCustody the same schedule keeps it.
func TestCrashDropsVolatileCustody(t *testing.T) {
	run := func(preserve bool) Stats {
		nw := testNetwork(t, Config{
			Nodes: 10, GroupSize: 2, Seed: 13,
			Faults: fault.Config{Crash: 1, PreserveCustody: preserve},
		})
		if _, err := nw.Node(0).Send(SendSpec{Dst: 9, Payload: []byte("churn"), Relays: 1, Copies: 1}, rng.New(1)); err != nil {
			t.Fatal(err)
		}
		g := contact.NewRandom(10, 1, 10, rng.New(2))
		nw.DriveSynthetic(g, 200, rng.New(3), nil)
		return nw.TotalStats()
	}
	volatile := run(false)
	if volatile.Crashes == 0 {
		t.Fatalf("no crash at probability 1: %+v", volatile)
	}
	if volatile.CrashDropped == 0 {
		t.Fatalf("crashes never dropped custody: %+v", volatile)
	}
	durable := run(true)
	if durable.Crashes == 0 {
		t.Fatalf("no crash with preserved custody: %+v", durable)
	}
	if durable.CrashDropped != 0 {
		t.Fatalf("preserved custody still dropped %d onions", durable.CrashDropped)
	}
}

// TestCrashKeepsDeliveredState: a destination that crashes after
// delivery keeps its delivered log (durable state) and still
// suppresses a late duplicate copy.
func TestCrashKeepsDeliveredState(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 10, GroupSize: 2, Seed: 21})
	dst := nw.Node(9)
	id, err := nw.Node(0).Send(SendSpec{Dst: 9, Payload: []byte("durable"), Relays: 1, Copies: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(10, 1, 10, rng.New(2))
	nw.DriveSynthetic(g, 1e6, rng.New(3), func() bool { return dst.DeliveredCount() == 1 })
	if dst.DeliveredCount() != 1 {
		t.Fatal("message never delivered")
	}
	dst.mu.Lock()
	dst.crashLocked(false)
	dst.mu.Unlock()
	if _, ok := dst.Delivered(id); !ok {
		t.Fatal("crash lost the delivered-payload log")
	}
	if !dst.KnowsDelivered(id) {
		t.Fatal("crash lost the acknowledgement log")
	}
}

// TestFaultConfigValidatedAtConstruction: NewNetwork refuses an
// out-of-range fault config instead of panicking later.
func TestFaultConfigValidatedAtConstruction(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 10, GroupSize: 2, Faults: fault.Config{Truncate: 1.5}}); err == nil {
		t.Fatal("accepted truncate probability > 1")
	}
	if _, err := NewNetwork(Config{Nodes: 10, GroupSize: 2, Faults: fault.Config{Retries: -1}}); err == nil {
		t.Fatal("accepted negative retry budget")
	}
}

// TestLegacyCorruptProbFoldsIntoFaults: Faults.Corrupt, the one
// spelling of the corruption rate since the legacy single knob was
// removed, reaches the fault plan unchanged.
func TestLegacyCorruptProbFoldsIntoFaults(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 10, GroupSize: 2, Seed: 3, Faults: fault.Config{Corrupt: 0.5}})
	if got := nw.plan.Config().Corrupt; got != 0.5 {
		t.Fatalf("explicit fault config overridden: plan corrupt = %v", got)
	}
}
