package workload

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/rng"
)

func testSetup(t *testing.T, cfg node.Config) (*node.Network, *contact.Graph) {
	t.Helper()
	nw, err := node.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(cfg.Nodes, 1, 20, rng.New(cfg.Seed+1))
	return nw, g
}

func TestSpecValidation(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 10, GroupSize: 2, Seed: 1})
	bad := []Spec{
		{Messages: 0, ArrivalRate: 1, Relays: 1, Copies: 1},
		{Messages: 1, ArrivalRate: 0, Relays: 1, Copies: 1},
		{Messages: 1, ArrivalRate: 1, Relays: 0, Copies: 1},
		{Messages: 1, ArrivalRate: 1, Relays: 1, Copies: 0},
		{Messages: 1, ArrivalRate: 1, Relays: 1, Copies: 1, PayloadSize: -1},
		{Messages: 1, ArrivalRate: 1, Relays: 1, Copies: 1, ExpiryAfter: -1},
	}
	for i, spec := range bad {
		if _, err := Run(nw, g, spec, 100); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := Run(nw, g, Spec{Messages: 1, ArrivalRate: 1, Relays: 1, Copies: 1}, 0); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestWorkloadDeliversMostMessages(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 30, GroupSize: 5, Seed: 3})
	spec := Spec{
		Messages:    40,
		ArrivalRate: 0.5, // one message every ~2 minutes
		PayloadSize: 128,
		Relays:      2,
		Copies:      1,
		PadTo:       1024,
		Seed:        7,
	}
	res, err := Run(nw, g, spec, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 40 {
		t.Fatalf("injected = %d", res.Injected)
	}
	if res.DeliveryRatio < 0.95 {
		t.Fatalf("delivery ratio %v with a generous horizon", res.DeliveryRatio)
	}
	if len(res.Latencies) != res.Delivered {
		t.Fatalf("%d latencies for %d deliveries", len(res.Latencies), res.Delivered)
	}
	for _, r := range res.Records {
		if r.Delivered && r.DeliveredAt < r.SentAt {
			t.Fatalf("delivered before sent: %+v", r)
		}
	}
	if res.Totals.Sent != 40 {
		t.Fatalf("node stats sent = %d", res.Totals.Sent)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	spec := Spec{Messages: 15, ArrivalRate: 1, Relays: 2, Copies: 2, Seed: 11}
	run := func() *Result {
		nw, g := testSetup(t, node.Config{Nodes: 25, GroupSize: 5, Seed: 13, Spray: true})
		res, err := Run(nw, g, spec, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Injected != b.Injected {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Delivered, a.Injected, b.Delivered, b.Injected)
	}
	// Message IDs are crypto-random, but the outcome pattern must
	// match.
	for i := range a.Records {
		if a.Records[i].Delivered != b.Records[i].Delivered ||
			a.Records[i].Src != b.Records[i].Src ||
			a.Records[i].Dst != b.Records[i].Dst {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestWorkloadWithExpiryDropsLateMessages(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 20, GroupSize: 4, Seed: 17})
	spec := Spec{
		Messages:    30,
		ArrivalRate: 2,
		Relays:      3,
		Copies:      1,
		ExpiryAfter: 0.5, // brutal half-minute deadline
		Seed:        19,
	}
	res, err := Run(nw, g, spec, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio > 0.5 {
		t.Fatalf("delivery ratio %v despite a 0.5-minute deadline", res.DeliveryRatio)
	}
	if res.Totals.Expired == 0 {
		t.Fatal("no message ever expired")
	}
}

func TestWorkloadBufferTracking(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 25, GroupSize: 5, Seed: 23, Spray: true})
	spec := Spec{
		Messages:     20,
		ArrivalRate:  5,
		Relays:       2,
		Copies:       3,
		Seed:         29,
		TrackBuffers: true,
	}
	res, err := Run(nw, g, spec, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBuffered == 0 {
		t.Fatal("no buffered onion ever observed")
	}
}

func TestWorkloadAntiPacketsReduceResidue(t *testing.T) {
	spec := Spec{Messages: 25, ArrivalRate: 2, Relays: 2, Copies: 4, Seed: 31}
	residue := func(anti bool) int {
		nw, g := testSetup(t, node.Config{Nodes: 30, GroupSize: 5, Seed: 37, Spray: true, AntiPackets: anti})
		if _, err := Run(nw, g, spec, 2000); err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < 30; i++ {
			total += nw.Node(contact.NodeID(i)).BufferLen()
		}
		return total
	}
	with, without := residue(true), residue(false)
	if with >= without {
		t.Fatalf("anti-packets left %d residual onions vs %d without", with, without)
	}
}

func BenchmarkWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nw, err := node.NewNetwork(node.Config{Nodes: 30, GroupSize: 5, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		g := contact.NewRandom(30, 1, 20, rng.New(uint64(i)))
		if _, err := Run(nw, g, Spec{
			Messages: 20, ArrivalRate: 1, Relays: 2, Copies: 1, Seed: uint64(i),
		}, 2000); err != nil {
			b.Fatal(err)
		}
	}
}
