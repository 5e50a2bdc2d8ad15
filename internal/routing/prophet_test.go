package routing

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestNewProphetValidation(t *testing.T) {
	if _, err := NewProphet(10, 1, 1); err == nil {
		t.Fatal("accepted src == dst")
	}
	if _, err := NewProphet(10, 0, 99); err == nil {
		t.Fatal("accepted out-of-range destination")
	}
}

func TestProphetPredictabilityRises(t *testing.T) {
	p, err := NewProphet(5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.predAt(0, 1) != 0 {
		t.Fatal("initial predictability not zero")
	}
	p.OnContact(1, 0, 1)
	first := p.predAt(0, 1)
	if first <= 0 {
		t.Fatal("predictability did not rise after contact")
	}
	p.OnContact(2, 0, 1)
	if p.predAt(0, 1) <= first {
		t.Fatal("repeated contact did not increase predictability")
	}
	if p.predAt(0, 1) > 1 {
		t.Fatal("predictability exceeded 1")
	}
}

func TestProphetAging(t *testing.T) {
	p, err := NewProphet(5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.OnContact(1, 0, 1)
	before := p.predAt(0, 1)
	// A much later contact with a different peer triggers aging of
	// node 0's whole row first.
	p.OnContact(100, 0, 2)
	if p.predAt(0, 1) >= before {
		t.Fatalf("predictability did not age: %v -> %v", before, p.predAt(0, 1))
	}
}

func TestProphetTransitivity(t *testing.T) {
	p, err := NewProphet(5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 1 meets 4 often: P(1, 4) high.
	for i := 0; i < 5; i++ {
		p.OnContact(float64(i)+1, 1, 4)
	}
	// 0 meets 1: learns about 4 transitively.
	p.OnContact(10, 0, 1)
	if p.predAt(0, 4) <= 0 {
		t.Fatal("no transitive predictability")
	}
	if p.predAt(0, 4) >= p.predAt(1, 4) {
		t.Fatal("transitive predictability not damped")
	}
}

func TestProphetForwardsTowardBetterCustodian(t *testing.T) {
	p, err := NewProphet(5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 meets the destination repeatedly: a strong custodian.
	for i := 0; i < 5; i++ {
		p.OnContact(float64(i)+1, 2, 4)
	}
	// Source meets node 3 (knows nothing): no replication.
	p.OnContact(10, 0, 3)
	if len(p.infected) != 1 {
		t.Fatal("replicated to a hopeless custodian")
	}
	// Source meets node 2: replicate.
	p.OnContact(11, 0, 2)
	if len(p.infected) != 2 {
		t.Fatal("did not replicate to a better custodian")
	}
	if p.Result().Transmissions != 1 {
		t.Fatalf("transmissions = %d", p.Result().Transmissions)
	}
	// Node 2 meets the destination: delivery.
	p.OnContact(12, 2, 4)
	r := p.Result()
	if !r.Delivered || r.Time != 12 {
		t.Fatalf("%+v", r)
	}
}

func TestProphetDeliversOnRandomGraph(t *testing.T) {
	g := contact.NewRandom(30, 1, 30, rng.New(1))
	delivered := 0
	const runs = 50
	for i := 0; i < runs; i++ {
		p, err := NewProphet(30, 0, 29)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, 1e5, rng.New(uint64(i)), p)
		if p.Result().Delivered {
			delivered++
		}
	}
	if delivered < runs*8/10 {
		t.Fatalf("only %d/%d delivered with a huge horizon", delivered, runs)
	}
}

func TestBinarySprayAndWaitHalving(t *testing.T) {
	p, err := NewBinarySprayAndWait(0, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	p.OnContact(1, 0, 1) // 0: 4, 1: 4
	if p.tickets[0] != 4 || p.tickets[1] != 4 {
		t.Fatalf("tickets after first split: %v", p.tickets)
	}
	p.OnContact(2, 1, 2) // 1: 2, 2: 2
	p.OnContact(3, 1, 2) // 2 already has a copy: nothing
	if p.tickets[1] != 2 || p.tickets[2] != 2 {
		t.Fatalf("tickets: %v", p.tickets)
	}
	if len(p.tickets) != 3 {
		t.Fatalf("carriers = %d", len(p.tickets))
	}
	// Single-ticket holders do not spray.
	p.OnContact(4, 0, 3) // 0: 4 -> 0: 2, 3: 2
	p.OnContact(5, 3, 4) // 3: 2 -> 3: 1, 4: 1
	p.OnContact(6, 4, 5) // 4 has a single ticket: waits
	if _, has := p.tickets[5]; has {
		t.Fatal("single-ticket holder sprayed")
	}
	// Any holder delivers on meeting the destination.
	p.OnContact(7, 9, 3)
	r := p.Result()
	if !r.Delivered || r.Time != 7 {
		t.Fatalf("%+v", r)
	}
}

func TestBinarySprayAndWaitValidation(t *testing.T) {
	if _, err := NewBinarySprayAndWait(1, 1, 3); err == nil {
		t.Fatal("accepted src == dst")
	}
	if _, err := NewBinarySprayAndWait(0, 1, 0); err == nil {
		t.Fatal("accepted zero copies")
	}
}

func TestBinarySpraySpreadsFasterThanSource(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	g := contact.NewRandom(40, 1, 60, rng.New(3))
	const copies = 8
	const runs = 400
	var srcDelay, binDelay float64
	var srcN, binN int
	for i := 0; i < runs; i++ {
		s1, err := NewSprayAndWait(0, 39, copies)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, 1e6, rng.New(uint64(i)), s1)
		if r := s1.Result(); r.Delivered {
			srcDelay += r.Time
			srcN++
		}
		s2, err := NewBinarySprayAndWait(0, 39, copies)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, 1e6, rng.New(uint64(i)).Split("bin"), s2)
		if r := s2.Result(); r.Delivered {
			binDelay += r.Time
			binN++
		}
	}
	if srcN == 0 || binN == 0 {
		t.Fatal("no deliveries")
	}
	if binDelay/float64(binN) >= srcDelay/float64(srcN) {
		t.Fatalf("binary spray delay %v not below source spray %v",
			binDelay/float64(binN), srcDelay/float64(srcN))
	}
}

func BenchmarkProphet(b *testing.B) {
	g := contact.NewRandom(50, 1, 60, rng.New(1))
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewProphet(50, 0, 49)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunSynthetic(g, 600, s, p)
	}
}
