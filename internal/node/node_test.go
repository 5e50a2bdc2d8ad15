package node

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/trace"
)

func testNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestStatsAddSumsEveryCounter gives every Stats field a distinct
// value, so a counter that Stats.Add leaves out, and with it both
// tiers' TotalStats, fails here.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var total Stats
	total.Add(s)
	total.Add(s)
	got := reflect.ValueOf(total)
	for i := 0; i < v.NumField(); i++ {
		if g := got.Field(i).Int(); g != int64(2*(i+1)) {
			t.Errorf("Stats.Add sums %s to %d, want %d", v.Type().Field(i).Name, g, 2*(i+1))
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 2, GroupSize: 1}); err == nil {
		t.Fatal("accepted 2 nodes")
	}
	if _, err := NewNetwork(Config{Nodes: 10, GroupSize: 2, Faults: fault.Config{Corrupt: 1.5}}); err == nil ||
		!strings.Contains(err.Error(), "fault: corrupt probability") {
		t.Fatalf("corrupt probability > 1 not rejected by the fault config: %v", err)
	}
	if _, err := NewNetwork(Config{Nodes: 10, GroupSize: 20}); err == nil {
		t.Fatal("accepted group size > nodes")
	}
}

func TestSendValidation(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 1})
	src := nw.Node(0)
	if _, err := src.Send(SendSpec{Dst: 19, Relays: 3, Copies: 0}, rng.New(1)); err == nil {
		t.Fatal("accepted zero copies")
	}
	if _, err := src.Send(SendSpec{Dst: 19, Relays: 99, Copies: 1}, rng.New(1)); err == nil {
		t.Fatal("accepted impossible relay count")
	}
	// A received copy is keyed by the lowercase hex of its bundle ID,
	// so an origin may use no other spelling.
	for _, id := range []string{"000102030405060708090A0B0C0D0E0F", "000102030405060708090a0b0c0d0e", "000102030405060708090a0b0c0d0e0g"} {
		if _, err := src.Send(SendSpec{Dst: 19, Relays: 3, Copies: 1, ID: id}, rng.New(1)); err == nil {
			t.Fatalf("accepted message id %q", id)
		}
	}
	if _, err := src.Send(SendSpec{Dst: 19, Relays: 3, Copies: 1, ID: "000102030405060708090a0b0c0d0e0f"}, rng.New(1)); err != nil {
		t.Fatalf("refused a lowercase message id: %v", err)
	}
}

func TestEndToEndDelivery(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 1})
	payload := []byte("rendezvous at grid 7-alpha")
	msgID, err := nw.Node(0).Send(SendSpec{
		Dst: 19, Payload: payload, Relays: 3, Copies: 1, PadTo: 2048,
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(20, 1, 30, rng.New(3))
	dst := nw.Node(19)
	nw.DriveSynthetic(g, 1e6, rng.New(4), func() bool { return dst.DeliveredCount() > 0 })

	got, ok := dst.Delivered(msgID)
	if !ok {
		t.Fatal("message not delivered")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Exactly K+1 = 4 hand-offs for a single-copy message.
	total := nw.TotalStats()
	if total.Forwarded != 4 {
		t.Fatalf("forwarded = %d, want 4", total.Forwarded)
	}
	if total.Delivered != 1 {
		t.Fatalf("delivered = %d", total.Delivered)
	}
	if total.Rejected != 0 {
		t.Fatalf("rejected = %d", total.Rejected)
	}
}

func TestPayloadHiddenFromRelays(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 5})
	payload := []byte("THE-SECRET-MARKER-0xFEEDFACE-THAT-MUST-NOT-LEAK")
	if _, err := nw.Node(0).Send(SendSpec{
		Dst: 19, Payload: payload, Relays: 3, Copies: 1,
	}, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(20, 1, 30, rng.New(7))
	dst := nw.Node(19)

	// Inspect every relay buffer after every contact: the payload must
	// never appear outside the destination.
	leaked := false
	for step := 0; step < 100000 && dst.DeliveredCount() == 0; step++ {
		nw.DriveSynthetic(g, float64(step+1), rng.New(uint64(step)), func() bool { return true })
		for i := 0; i < 19; i++ {
			n := nw.Node(contact.NodeID(i))
			n.mu.Lock()
			for _, c := range n.buffer {
				if bytes.Contains(c.data, payload[:16]) {
					leaked = true
				}
			}
			n.mu.Unlock()
		}
		if leaked {
			t.Fatal("payload fragment visible in a relay buffer")
		}
	}
}

func TestTamperingRejectedAndRetried(t *testing.T) {
	// 30% of hand-offs are corrupted; authenticated encryption must
	// reject them and the message must still arrive via retries.
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 9, Faults: fault.Config{Corrupt: 0.3}})
	const msgs = 10
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
			t.Fatalf("message %d lost under transport corruption", i)
		}
	}
	if nw.TotalStats().Rejected == 0 {
		t.Fatal("no hand-off was ever rejected at 30% corruption across 30 hops")
	}
}

func TestFullCorruptionNeverDelivers(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 12, GroupSize: 3, Seed: 13, Faults: fault.Config{Corrupt: 1}})
	if _, err := nw.Node(0).Send(SendSpec{Dst: 11, Payload: []byte("doomed"), Relays: 2, Copies: 1}, rng.New(14)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(12, 1, 5, rng.New(15))
	nw.DriveSynthetic(g, 5000, rng.New(16), nil)
	if nw.TotalStats().Delivered != 0 {
		t.Fatal("delivered despite total corruption")
	}
	// The source still holds the onion: nothing was lost.
	if nw.Node(0).BufferLen() != 1 {
		t.Fatalf("source buffer = %d, want 1", nw.Node(0).BufferLen())
	}
}

func TestExpiry(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 12, GroupSize: 3, Seed: 17})
	if _, err := nw.Node(0).Send(SendSpec{
		Dst: 11, Payload: []byte("late"), Relays: 2, Copies: 1, Expiry: 0.001,
	}, rng.New(18)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(12, 1, 5, rng.New(19))
	nw.DriveSynthetic(g, 1000, rng.New(20), nil)
	total := nw.TotalStats()
	if total.Delivered != 0 {
		t.Fatal("expired message was delivered")
	}
	if total.Expired == 0 {
		t.Fatal("expiry never triggered")
	}
}

func TestMultiCopyStrict(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 30, GroupSize: 5, Seed: 21})
	msgID, err := nw.Node(0).Send(SendSpec{Dst: 29, Payload: []byte("multi"), Relays: 3, Copies: 3}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(30, 1, 20, rng.New(23))
	dst := nw.Node(29)
	nw.DriveSynthetic(g, 1e6, rng.New(24), func() bool { return dst.DeliveredCount() > 0 })
	if _, ok := dst.Delivered(msgID); !ok {
		t.Fatal("not delivered")
	}
	// Cost within the multi-copy bound 2L-1+KL.
	if f := nw.TotalStats().Forwarded; f > 2*3-1+3*3 {
		t.Fatalf("forwarded = %d exceeds bound", f)
	}
}

func TestSprayCarriersCannotPeel(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 30, GroupSize: 5, Seed: 25, Spray: true})
	msgID, err := nw.Node(0).Send(SendSpec{Dst: 29, Payload: []byte("spray"), Relays: 2, Copies: 4}, rng.New(26))
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(30, 1, 20, rng.New(27))
	dst := nw.Node(29)
	nw.DriveSynthetic(g, 1e6, rng.New(28), func() bool { return dst.DeliveredCount() > 0 })
	if _, ok := dst.Delivered(msgID); !ok {
		t.Fatal("not delivered in spray mode")
	}
}

func TestMeetSelfIsNoop(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 10, GroupSize: 2, Seed: 29})
	if rep := nw.Meet(3, 3, 0); rep.Transfers != 0 {
		t.Fatal("self-meeting transferred something")
	}
}

// TestConcurrentMeets hammers Meet from many goroutines (run with
// -race). With anti-packets, nodes share the backing arrays of their
// per-origin ack logs while the origins append to them.
func TestConcurrentMeets(t *testing.T) {
	for _, anti := range []bool{false, true} {
		t.Run(fmt.Sprintf("antipackets=%v", anti), func(t *testing.T) {
			nw := testNetwork(t, Config{Nodes: 40, GroupSize: 5, Seed: 31, AntiPackets: anti})
			// Ten messages from different sources.
			for i := 0; i < 10; i++ {
				if _, err := nw.Node(contact.NodeID(i)).Send(SendSpec{
					Dst: contact.NodeID(39 - i), Payload: []byte{byte(i)}, Relays: 2, Copies: 2,
				}, rng.New(uint64(100+i))); err != nil {
					t.Fatal(err)
				}
			}
			// The per-pair double-locking must keep ticket accounting
			// consistent.
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := rng.New(uint64(w))
					for i := 0; i < 2000; i++ {
						a := contact.NodeID(s.IntN(40))
						b := contact.NodeID(s.PickOther(40, int(a)))
						nw.Meet(a, b, float64(i))
					}
				}(w)
			}
			wg.Wait()
			total := nw.TotalStats()
			if total.Delivered > 10 {
				t.Fatalf("delivered %d > sent 10", total.Delivered)
			}
			if total.Sent != 10 {
				t.Fatalf("sent = %d", total.Sent)
			}
		})
	}
}

func TestDriveTrace(t *testing.T) {
	tr, err := trace.GenerateCambridge(rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	nw := testNetwork(t, Config{Nodes: tr.NodeCount, GroupSize: 3, Seed: 34})
	msgID, err := nw.Node(0).Send(SendSpec{Dst: 11, Payload: []byte("trace"), Relays: 2, Copies: 1}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	dst := nw.Node(11)
	start := tr.Contacts[0].Start
	nw.DriveTrace(tr, start, 86400, func() bool { return dst.DeliveredCount() > 0 })
	if _, ok := dst.Delivered(msgID); !ok {
		t.Fatal("not delivered over the dense trace within a day")
	}
}

func BenchmarkMeet(b *testing.B) {
	nw, err := NewNetwork(Config{Nodes: 20, GroupSize: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nw.Node(0).Send(SendSpec{Dst: 19, Payload: make([]byte, 256), Relays: 3, Copies: 1}, rng.New(2)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Meet(contact.NodeID(i%19), contact.NodeID((i+7)%19), float64(i))
	}
}

func BenchmarkEndToEnd(b *testing.B) {
	g := contact.NewRandom(20, 1, 30, rng.New(3))
	for i := 0; i < b.N; i++ {
		nw, err := NewNetwork(Config{Nodes: 20, GroupSize: 4, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Node(0).Send(SendSpec{Dst: 19, Payload: make([]byte, 256), Relays: 3, Copies: 1}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
		dst := nw.Node(19)
		nw.DriveSynthetic(g, 1e6, rng.New(uint64(i)+1), func() bool { return dst.DeliveredCount() > 0 })
	}
}

func TestBufferLimitRefusesCustody(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 51, BufferLimit: 1})
	// Two messages from node 0: relays can hold only one onion each,
	// so some custody hand-offs are refused, yet both messages arrive
	// eventually (refusal leaves custody with the sender).
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := nw.Node(0).Send(SendSpec{Dst: 19, Payload: []byte{byte(i)}, Relays: 2, Copies: 1}, rng.New(uint64(52+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Note the source itself holds 2 onions; Send is exempt from the
	// limit (a node may always originate), only accepts are capped.
	g := contact.NewRandom(20, 1, 5, rng.New(54))
	dst := nw.Node(19)
	nw.DriveSynthetic(g, 1e6, rng.New(55), func() bool { return dst.DeliveredCount() == 2 })
	for i, id := range ids {
		if _, ok := dst.Delivered(id); !ok {
			t.Fatalf("message %d lost under buffer pressure", i)
		}
	}
}

func TestBufferLimitValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 5, GroupSize: 2, BufferLimit: -1}); err == nil {
		t.Fatal("accepted negative buffer limit")
	}
}

func TestBufferRefusalCounted(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 10, GroupSize: 3, Seed: 57, BufferLimit: 1})
	// Fill node 1's buffer manually by sending it a message addressed
	// through its group, then try a second transfer to it.
	dir := nw.Directory()
	gid := dir.GroupOf(1)
	var inGroup contact.NodeID = 1
	// Two messages whose first group is node 1's group.
	sent := 0
	for i := 0; i < 50 && sent < 2; i++ {
		id, err := nw.Node(0).Send(SendSpec{Dst: 9, Payload: []byte{byte(i)}, Relays: 2, Copies: 1}, rng.New(uint64(60+i)))
		if err != nil {
			t.Fatal(err)
		}
		_ = id
		sent++
	}
	// Drive only meetings between 0 and 1: the second custody transfer
	// to node 1 must be refused if both onions start at 1's group.
	for step := 0; step < 10; step++ {
		nw.Meet(0, inGroup, float64(step))
	}
	_ = gid
	if nw.Node(1).BufferLen() > 1 {
		t.Fatalf("buffer limit exceeded: %d", nw.Node(1).BufferLen())
	}
}

func TestAntiPacketsPurgeStaleCopies(t *testing.T) {
	// Multi-copy message with anti-packets: after delivery, the ACK
	// gossips through contacts and stale copies are purged everywhere.
	nw := testNetwork(t, Config{Nodes: 30, GroupSize: 5, Seed: 71, Spray: true, AntiPackets: true})
	msgID, err := nw.Node(0).Send(SendSpec{Dst: 29, Payload: []byte("ack me"), Relays: 2, Copies: 5}, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(30, 1, 10, rng.New(73))
	dst := nw.Node(29)
	// Run well past delivery so the anti-packet can spread.
	nw.DriveSynthetic(g, 1e6, rng.New(74), func() bool {
		if dst.DeliveredCount() == 0 {
			return false
		}
		for i := 0; i < 30; i++ {
			if nw.Node(contact.NodeID(i)).BufferLen() > 0 {
				return false
			}
		}
		return true
	})
	if _, ok := dst.Delivered(msgID); !ok {
		t.Fatal("not delivered")
	}
	total := 0
	for i := 0; i < 30; i++ {
		total += nw.Node(contact.NodeID(i)).BufferLen()
	}
	if total != 0 {
		t.Fatalf("%d stale copies still buffered after anti-packet spread", total)
	}
	if nw.TotalStats().Purged == 0 {
		t.Fatal("no copy was ever purged despite L=5")
	}
	if !nw.Node(0).KnowsDelivered(msgID) {
		t.Fatal("source never learned about the delivery")
	}
}

func TestWithoutAntiPacketsStaleCopiesLinger(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 30, GroupSize: 5, Seed: 75, Spray: true})
	if _, err := nw.Node(0).Send(SendSpec{Dst: 29, Payload: []byte("no ack"), Relays: 2, Copies: 5}, rng.New(76)); err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(30, 1, 10, rng.New(77))
	dst := nw.Node(29)
	nw.DriveSynthetic(g, 1e5, rng.New(78), func() bool { return dst.DeliveredCount() > 0 })
	if dst.DeliveredCount() == 0 {
		t.Skip("no delivery on this realization")
	}
	// Stalled copies remain: holders at the last hop can never hand to
	// the destination again.
	nw.DriveSynthetic(g, 1e5, rng.New(79), nil)
	total := 0
	for i := 0; i < 30; i++ {
		total += nw.Node(contact.NodeID(i)).BufferLen()
	}
	if total == 0 {
		t.Fatal("expected stale copies without anti-packets")
	}
	if nw.TotalStats().Purged != 0 {
		t.Fatal("purge happened without anti-packets")
	}
}

// KnowsDelivered reports whether this node has learned (directly or
// via anti-packet gossip) that the message was delivered.
func (n *Node) KnowsDelivered(msgID string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return knownAcks(n)[msgID]
}
