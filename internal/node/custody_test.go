package node

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/rng"
)

// checkCustody asserts the custody FIFO's structural invariants: the
// live (non-gone) entries of order are exactly the buffer map, each
// once; the tombstone count matches; and compaction keeps order within
// twice the live custody.
func checkCustody(t *testing.T, n *Node, step int) {
	t.Helper()
	live, gone := 0, 0
	inOrder := make(map[string]bool, len(n.order))
	for _, c := range n.order {
		if c.gone {
			gone++
			if n.buffer[c.id] == c {
				t.Fatalf("step %d node %d: released %s still in the buffer", step, n.id, c.id)
			}
			continue
		}
		if inOrder[c.id] {
			t.Fatalf("step %d node %d: %s twice in the custody order", step, n.id, c.id)
		}
		inOrder[c.id] = true
		if n.buffer[c.id] != c {
			t.Fatalf("step %d node %d: %s in the custody order but not the buffer", step, n.id, c.id)
		}
		live++
	}
	if live != len(n.buffer) {
		t.Fatalf("step %d node %d: %d live entries in order, %d in the buffer", step, n.id, live, len(n.buffer))
	}
	if gone != n.tombstones {
		t.Fatalf("step %d node %d: %d tombstones in order, counter says %d", step, n.id, gone, n.tombstones)
	}
	if len(n.order) > 2*len(n.buffer) {
		t.Fatalf("step %d node %d: order holds %d slots for %d onions", step, n.id, len(n.order), len(n.buffer))
	}
	if len(n.ackLog) != len(n.acks) {
		t.Fatalf("step %d node %d: ack log has %d entries for %d acks", step, n.id, len(n.ackLog), len(n.acks))
	}
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// checkAcksMerged asserts that after a contact n knows exactly the
// union of both parties' pre-contact acknowledgements, plus the
// messages delivered to n during the contact itself.
func checkAcksMerged(t *testing.T, n *Node, union, deliveredBefore map[string]bool, step int) {
	t.Helper()
	for id := range union {
		if !n.acks[id] {
			t.Fatalf("step %d node %d: ack %s not merged", step, n.id, id)
		}
	}
	for id := range n.acks {
		if union[id] {
			continue
		}
		if _, ok := n.delivered[id]; !ok || deliveredBefore[id] {
			t.Fatalf("step %d node %d: ack %s neither gossiped nor a new delivery", step, n.id, id)
		}
	}
}

// TestCustodyInvariantsRandomized drives seeded random traffic through
// every custody-release path — ticket exhaustion, back-pressure drops,
// anti-packet purges, expiry and crashes that lose custody — under
// torn, corrupted and duplicated hand-offs, and checks the custody
// FIFO and the ack merge after every contact.
func TestCustodyInvariantsRandomized(t *testing.T) {
	const nodes = 12
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			nw := testNetwork(t, Config{
				Nodes: nodes, GroupSize: 3, Seed: seed, Spray: true, AntiPackets: true,
				BufferLimit: 4, ReofferLimit: 2,
				Faults: fault.Config{Truncate: 0.1, Corrupt: 0.05, Duplicate: 0.1, Crash: 0.03, Retries: 1},
			})
			s := rng.New(seed).Split("custody-invariants")
			now := 0.0
			for step := 0; step < 3000; step++ {
				now += s.Exp(1)
				if s.Float64() < 0.3 {
					src := contact.NodeID(s.IntN(nodes))
					spec := SendSpec{
						Dst:     contact.NodeID(s.PickOther(nodes, int(src))),
						Payload: []byte{byte(step)},
						Relays:  1 + s.IntN(2),
						Copies:  1 + s.IntN(3),
					}
					if s.Float64() < 0.5 {
						spec.Expiry = now + 5 + 40*s.Float64()
					}
					if _, err := nw.Node(src).Send(spec, s.SplitN("path", step)); err != nil {
						t.Fatal(err)
					}
				}
				x := contact.NodeID(s.IntN(nodes))
				y := contact.NodeID(s.PickOther(nodes, int(x)))
				a, b := nw.Node(x), nw.Node(y)
				union := copySet(a.acks)
				for id := range b.acks {
					union[id] = true
				}
				aDelivered, bDelivered := make(map[string]bool), make(map[string]bool)
				for id := range a.delivered {
					aDelivered[id] = true
				}
				for id := range b.delivered {
					bDelivered[id] = true
				}
				nw.Meet(x, y, now)
				checkCustody(t, a, step)
				checkCustody(t, b, step)
				checkAcksMerged(t, a, union, aDelivered, step)
				checkAcksMerged(t, b, union, bDelivered, step)
			}
			st := nw.TotalStats()
			for name, v := range map[string]int{
				"Forwarded": st.Forwarded, "Purged": st.Purged, "Expired": st.Expired,
				"BackpressureDropped": st.BackpressureDropped, "CrashDropped": st.CrashDropped,
				"Truncated": st.Truncated, "Corrupted": st.Corrupted, "Duplicates": st.Duplicates,
			} {
				if v == 0 {
					t.Errorf("release path or fault %s never exercised", name)
				}
			}
		})
	}
}

// idlePair builds a network in which node 0 holds 30 onions none of
// which its peer (their common destination) may take, so a contact
// between the two transfers nothing.
func idlePair(t *testing.T, antiPackets bool) (*Network, contact.NodeID) {
	t.Helper()
	const dst = 19
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 1, AntiPackets: antiPackets})
	for i := 0; i < 30; i++ {
		if _, err := nw.Node(0).Send(SendSpec{Dst: dst, Payload: make([]byte, 64), Relays: 1, Copies: 1}, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if antiPackets {
		for i := 0; i < 50; i++ {
			nw.Node(0).addAckLocked(fmt.Sprintf("%032x", i))
		}
	}
	return nw, dst
}

// TestMeetAllocsIdleContact pins that a contact which moves nothing
// allocates nothing: no custody snapshot, no sort, no ack rescan.
func TestMeetAllocsIdleContact(t *testing.T) {
	for _, anti := range []bool{false, true} {
		t.Run(fmt.Sprintf("antipackets=%v", anti), func(t *testing.T) {
			nw, dst := idlePair(t, anti)
			now := 0.0
			allocs := testing.AllocsPerRun(100, func() {
				now++
				if rep := nw.Meet(0, dst, now); rep.Transfers != 0 {
					t.Fatalf("idle contact transferred %d onions", rep.Transfers)
				}
			})
			if allocs != 0 {
				t.Fatalf("idle Meet allocates %v times, want 0", allocs)
			}
			if got := nw.Node(0).BufferLen(); got != 30 {
				t.Fatalf("node 0 holds %d onions after idle contacts, want 30", got)
			}
		})
	}
}

// TestAckGossipCostIndependentOfHistory is a paired ratio gate, so it
// holds on any machine: an idle re-contact between two nodes that
// share 10,000 acknowledgements must cost less than 3x one between
// nodes sharing 10. Rescanning the ack sets at every contact makes the
// ratio about 1000x.
func TestAckGossipCostIndependentOfHistory(t *testing.T) {
	shared := func(acks int) *Network {
		nw := testNetwork(t, Config{Nodes: 10, GroupSize: 2, Seed: 1, AntiPackets: true})
		for i := 0; i < acks; i++ {
			nw.Node(0).addAckLocked(fmt.Sprintf("%032x", i))
		}
		nw.Meet(0, 1, 0) // node 1 learns them all
		if len(nw.Node(1).acks) != acks {
			t.Fatalf("node 1 knows %d acks, want %d", len(nw.Node(1).acks), acks)
		}
		return nw
	}
	small, large := shared(10), shared(10_000)
	measure := func(nw *Network) time.Duration {
		const meets = 2000
		start := time.Now()
		for i := 0; i < meets; i++ {
			nw.Meet(0, 1, 0)
		}
		return time.Since(start)
	}
	bestSmall, bestLarge := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 7; round++ {
		bestSmall = min(bestSmall, measure(small))
		bestLarge = min(bestLarge, measure(large))
	}
	ratio := float64(bestLarge) / float64(bestSmall)
	t.Logf("idle re-contact: 10 shared acks %v, 10000 shared acks %v per 2000 meets (ratio %.2f)", bestSmall, bestLarge, ratio)
	if ratio >= 3 {
		t.Fatalf("idle re-contact with 10000 shared acks costs %.1fx one with 10, want < 3x", ratio)
	}
}
