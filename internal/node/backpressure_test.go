package node

import (
	"testing"

	"repro/internal/rng"
)

// sprayNetwork builds a network where node 0 originates five 3-copy
// spray messages, so every peer is an eligible custodian and a
// BufferLimit-1 receiver deterministically refuses four of the five
// offers at each contact.
func sprayNetwork(t *testing.T, reofferLimit int) (*Network, []string) {
	t.Helper()
	nw, err := NewNetwork(Config{
		Nodes: 10, GroupSize: 3, Seed: 91, Spray: true,
		BufferLimit: 1, ReofferLimit: reofferLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := nw.Node(0).Send(SendSpec{Dst: 9, Payload: []byte{byte(i)}, Relays: 2, Copies: 3}, rng.New(uint64(92+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return nw, ids
}

// TestReofferBudgetDropsHopelessCopies: with a re-offer budget, copies
// whose every offer is refused by a full peer are dropped once the
// budget is spent, instead of being re-offered forever.
func TestReofferBudgetDropsHopelessCopies(t *testing.T) {
	nw, _ := sprayNetwork(t, 2)
	// First contact: node 1 accepts one copy, its buffer is full, the
	// remaining four offers are refused (one charge each).
	rep := nw.Meet(0, 1, 1)
	if rep.Refused != 4 {
		t.Fatalf("first contact refused %d offers, want 4", rep.Refused)
	}
	if rep.Dropped != 0 || nw.TotalStats().BackpressureDropped != 0 {
		t.Fatalf("copies dropped after a single refusal: %+v", rep)
	}
	// Second contact: the same four offers are refused again, hitting
	// the budget of 2; all four copies are dropped.
	rep = nw.Meet(0, 1, 2)
	if rep.Refused != 4 || rep.Dropped != 4 {
		t.Fatalf("second contact = %+v, want 4 refused and 4 dropped", rep)
	}
	if got := nw.TotalStats().BackpressureDropped; got != 4 {
		t.Fatalf("BackpressureDropped = %d, want 4", got)
	}
	// Only the accepted message's remaining tickets stay in custody.
	if got := nw.Node(0).BufferLen(); got != 1 {
		t.Fatalf("sender buffer = %d onions, want 1 after backpressure drops", got)
	}
	// Third contact: nothing left to refuse.
	if rep = nw.Meet(0, 1, 3); rep.Refused != 0 {
		t.Fatalf("dropped copies were re-offered: %+v", rep)
	}
}

// TestNoReofferBudgetKeepsCustody pins the historical default: with
// ReofferLimit 0 the sender re-offers refused copies indefinitely and
// never drops custody.
func TestNoReofferBudgetKeepsCustody(t *testing.T) {
	nw, _ := sprayNetwork(t, 0)
	totalRefused := 0
	for step := 1; step <= 4; step++ {
		rep := nw.Meet(0, 1, float64(step))
		if rep.Dropped != 0 {
			t.Fatalf("step %d dropped copies without a budget: %+v", step, rep)
		}
		totalRefused += rep.Refused
	}
	if totalRefused != 16 {
		t.Fatalf("refusals = %d, want 4 per contact x 4 contacts", totalRefused)
	}
	if got := nw.TotalStats().BackpressureDropped; got != 0 {
		t.Fatalf("BackpressureDropped = %d, want 0", got)
	}
	if got := nw.Node(0).BufferLen(); got != 5 {
		t.Fatalf("sender buffer = %d onions, want all 5 retained", got)
	}
}

// TestHandoffRefused covers the transport-surface spelling used by the
// cluster tier: buffer-full verdicts settled through Settle charge the
// budget, exhaustion releases custody, unknown IDs are no-ops.
func TestHandoffRefused(t *testing.T) {
	nw, ids := sprayNetwork(t, 0)
	src := nw.Node(0)
	src.SetReofferLimit(2)
	full := Verdict{BufferFull: true}
	if src.Settle("00000000000000000000000000000000", full) {
		t.Fatal("unknown message reported dropped")
	}
	if dropped := src.Settle(ids[0], full); dropped {
		t.Fatal("dropped on first refusal with budget 2")
	}
	if dropped := src.Settle(ids[0], full); !dropped {
		t.Fatal("second refusal did not exhaust the budget")
	}
	if src.BufferLen() != 4 {
		t.Fatalf("buffer = %d, want 4 after one backpressure drop", src.BufferLen())
	}
	if got := src.Stats().BackpressureDropped; got != 1 {
		t.Fatalf("BackpressureDropped = %d, want 1", got)
	}
	// A negative limit is clamped to "unlimited".
	src.SetReofferLimit(-1)
	for i := 0; i < 5; i++ {
		if src.Settle(ids[1], full) {
			t.Fatal("unlimited budget dropped a copy")
		}
	}
}
