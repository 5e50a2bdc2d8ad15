package routing

import (
	"bytes"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
	"repro/internal/shamir"
	"repro/internal/sim"
)

func tpsParams() TPSParams {
	return TPSParams{
		Src: 0, Dst: 9, Pivot: 8,
		Sets:      [][]contact.NodeID{{1, 2}, {3, 4}, {5, 6}},
		Threshold: 2,
	}
}

func TestTPSValidate(t *testing.T) {
	if err := tpsParams().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*TPSParams){
		"src == dst":        func(p *TPSParams) { p.Dst = p.Src },
		"pivot == dst":      func(p *TPSParams) { p.Pivot = p.Dst },
		"no groups":         func(p *TPSParams) { p.Sets = nil },
		"zero threshold":    func(p *TPSParams) { p.Threshold = 0 },
		"threshold > s":     func(p *TPSParams) { p.Threshold = 4 },
		"empty group":       func(p *TPSParams) { p.Sets[1] = nil },
		"group holds pivot": func(p *TPSParams) { p.Sets[0] = []contact.NodeID{8} },
	}
	for name, mutate := range cases {
		p := tpsParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestTPSDeterministicWalk(t *testing.T) {
	tp, err := NewTPS(tpsParams())
	if err != nil {
		t.Fatal(err)
	}
	// Pivot meets dst before threshold: nothing.
	tp.OnContact(1, 8, 9)
	if tp.Result().Delivered {
		t.Fatal("delivered without shares")
	}
	// Share 0 to relay 1; share 2 to relay 5.
	tp.OnContact(2, 0, 1)
	tp.OnContact(3, 5, 0) // reversed direction
	if got := tp.Result().Transmissions; got != 2 {
		t.Fatalf("transmissions = %d, want 2", got)
	}
	// Relays deliver shares to the pivot.
	tp.OnContact(4, 1, 8)
	if tp.Result().SharesAtPivot != 1 {
		t.Fatalf("pivot shares = %d", tp.Result().SharesAtPivot)
	}
	// Pivot meets dst below threshold: still nothing.
	tp.OnContact(5, 8, 9)
	if tp.Result().Delivered {
		t.Fatal("delivered below threshold")
	}
	tp.OnContact(6, 5, 8)
	if tp.Result().SharesAtPivot != 2 {
		t.Fatalf("pivot shares = %d", tp.Result().SharesAtPivot)
	}
	// Threshold met: delivery on next pivot-dst contact.
	tp.OnContact(7, 9, 8)
	res := tp.Result()
	if !res.Delivered || res.Time != 7 {
		t.Fatalf("%+v", res)
	}
	// 2 shares x 2 hops + 1 delivery.
	if res.Transmissions != 5 {
		t.Fatalf("transmissions = %d, want 5", res.Transmissions)
	}
	if !tp.Done() {
		t.Fatal("not done")
	}
}

func TestTPSSharesUseDistinctGroups(t *testing.T) {
	tp, err := NewTPS(tpsParams())
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 is only in group 0: meeting it twice moves only share 0.
	tp.OnContact(1, 0, 1)
	tp.OnContact(2, 0, 1)
	res := tp.Result()
	if res.Transmissions != 1 {
		t.Fatalf("transmissions = %d, want 1", res.Transmissions)
	}
	if res.ShareRelays[0] != 1 || res.ShareRelays[1] != -1 {
		t.Fatalf("share relays = %v", res.ShareRelays)
	}
}

func TestTPSOnSyntheticGraph(t *testing.T) {
	g := contact.NewRandom(20, 1, 30, rng.New(1))
	delivered := 0
	var txSum int
	const runs = 100
	for i := 0; i < runs; i++ {
		p := TPSParams{
			Src: 0, Dst: 19, Pivot: 18,
			Sets:      [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}},
			Threshold: 3,
		}
		tp, err := NewTPS(p)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, 1e6, rng.New(uint64(i)), tp)
		res := tp.Result()
		if res.Delivered {
			delivered++
			txSum += res.Transmissions
			// Bounded by 2s + 1.
			if res.Transmissions > 2*4+1 {
				t.Fatalf("transmissions %d exceed 2s+1", res.Transmissions)
			}
			if res.SharesAtPivot < 3 {
				t.Fatalf("delivered with %d < threshold shares", res.SharesAtPivot)
			}
		}
	}
	if delivered < runs*9/10 {
		t.Fatalf("only %d/%d delivered with an unbounded horizon", delivered, runs)
	}
}

// TestTPSWithRealShares wires the routing layer to actual Shamir
// secret sharing: the pivot reconstructs the message from exactly the
// shares the simulation says it collected.
func TestTPSWithRealShares(t *testing.T) {
	secret := []byte("pivot may reconstruct this")
	const s, tau = 4, 2
	shares, err := shamir.Split(secret, s, tau)
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(20, 1, 30, rng.New(3))
	p := TPSParams{
		Src: 0, Dst: 19, Pivot: 18,
		Sets:      [][]contact.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		Threshold: tau,
	}
	tp, err := NewTPS(p)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSynthetic(g, 1e6, rng.New(4), tp)
	res := tp.Result()
	if !res.Delivered {
		t.Skip("no delivery on this realization")
	}
	// Reconstruct from the shares that reached the pivot.
	var collected []shamir.Share
	for i, st := range tp.state {
		if st == shareAtPivot {
			collected = append(collected, shares[i])
		}
	}
	if len(collected) < tau {
		t.Fatalf("pivot had %d shares at delivery", len(collected))
	}
	got, err := shamir.Combine(collected[:tau])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("pivot failed to reconstruct the secret")
	}
}

// TestTPSFasterThanOnionLongPaths demonstrates the scheme's selling
// point (Sec. VI-C): parallel two-hop share paths beat a long serial
// onion path on delay.
func TestTPSFasterThanOnionLongPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	g := contact.NewRandom(40, 1, 120, rng.New(7))
	sets := [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14, 15}}
	const runs = 400
	var onionDelay, tpsDelay float64
	var onionN, tpsN int
	for i := 0; i < runs; i++ {
		op := Params{Src: 0, Dst: 39, Sets: sets, Copies: 1}
		or, err := SampleOnion(g, op, 1e7, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if or.Delivered {
			onionDelay += or.Time
			onionN++
		}
		tp, err := NewTPS(TPSParams{Src: 0, Dst: 39, Pivot: 38, Sets: sets, Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, 1e7, rng.New(uint64(i)).Split("tps"), tp)
		if tr := tp.Result(); tr.Delivered {
			tpsDelay += tr.Time
			tpsN++
		}
	}
	if onionN == 0 || tpsN == 0 {
		t.Fatal("no deliveries")
	}
	if tpsDelay/float64(tpsN) >= onionDelay/float64(onionN) {
		t.Fatalf("TPS delay %v not below onion delay %v (K=5)",
			tpsDelay/float64(tpsN), onionDelay/float64(onionN))
	}
}

func BenchmarkTPSOnEngine(b *testing.B) {
	g := contact.NewRandom(40, 1, 120, rng.New(1))
	sets := [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp, err := NewTPS(TPSParams{Src: 0, Dst: 39, Pivot: 38, Sets: sets, Threshold: 2})
		if err != nil {
			b.Fatal(err)
		}
		sim.RunSynthetic(g, 1800, s, tp)
	}
}
