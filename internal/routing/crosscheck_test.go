package routing

import (
	"math"
	"testing"

	"repro/internal/contact"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestSamplerMatchesFullEngine validates the direct sampler against
// the brute-force synthetic engine: both simulate the same protocol on
// the same graph, so delivery rate and mean transmissions must agree
// statistically.
func TestSamplerMatchesFullEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	g := contact.NewRandom(30, 1, 120, rng.New(11))
	sets := [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}}
	const deadline = 240
	const runs = 3000

	for _, tc := range []struct {
		name   string
		copies int
		spray  bool
	}{
		{"single", 1, false},
		{"multi-strict", 3, false},
		{"multi-spray", 3, true},
	} {
		p := Params{Src: 0, Dst: 29, Sets: sets, Copies: tc.copies, Spray: tc.spray}

		var sampleDelivered, engineDelivered int
		var sampleTx, engineTx float64
		for i := 0; i < runs; i++ {
			r, err := SampleOnion(g, p, deadline, rng.New(uint64(i)).Split("sample"))
			if err != nil {
				t.Fatal(err)
			}
			if r.Delivered {
				sampleDelivered++
			}
			sampleTx += float64(r.Transmissions)

			o, err := NewOnion(p)
			if err != nil {
				t.Fatal(err)
			}
			sim.RunSynthetic(g, deadline, rng.New(uint64(i)).Split("engine"), o)
			er := o.Result()
			if er.Delivered {
				engineDelivered++
			}
			engineTx += float64(er.Transmissions)
		}
		sRate := float64(sampleDelivered) / runs
		eRate := float64(engineDelivered) / runs
		if math.Abs(sRate-eRate) > 0.03 {
			t.Errorf("%s: delivery rate sampler %v vs engine %v", tc.name, sRate, eRate)
		}
		if math.Abs(sampleTx-engineTx)/runs > 0.15 {
			t.Errorf("%s: mean transmissions sampler %v vs engine %v", tc.name, sampleTx/runs, engineTx/runs)
		}
	}
}

// TestSingleCopyDeliveryMatchesModel is the paper's core validation
// (Figs. 4-5): the simulated single-copy delivery rate must track the
// opportunistic onion path model (Eqs. 4-6).
func TestSingleCopyDeliveryMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	g := contact.NewRandom(60, 1, 360, rng.New(21))
	sets := [][]contact.NodeID{
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9, 10},
		{11, 12, 13, 14, 15},
	}
	rates, err := contact.GroupPathRates(g, 0, 59, sets)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Src: 0, Dst: 59, Sets: sets, Copies: 1}
	// The paper's own Figs. 4-5 show a gap between analysis and
	// simulation ("the same trend can be clearly observed"): Eq. 4
	// aggregates hop rates over whole groups, which is optimistic for
	// the single holder of the simulated protocol. The reproduction
	// claims are therefore: (a) both curves rise monotonically, (b) the
	// analysis never falls below the simulation by more than noise, and
	// (c) both saturate at long deadlines.
	var prevSim, prevModel float64
	for _, deadline := range []float64{120, 360, 720, 1440, 2880} {
		want, err := model.DeliveryRate(rates, deadline)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 4000
		delivered := 0
		for i := 0; i < runs; i++ {
			r, err := SampleOnion(g, p, deadline, rng.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Delivered {
				delivered++
			}
		}
		got := float64(delivered) / runs
		if got < prevSim-0.02 || want < prevModel-1e-9 {
			t.Errorf("T=%v: non-monotone curves (sim %v after %v, model %v after %v)",
				deadline, got, prevSim, want, prevModel)
		}
		if want < got-0.05 {
			t.Errorf("T=%v: analysis %v fell below simulation %v", deadline, want, got)
		}
		prevSim, prevModel = got, want
	}
	if prevSim < 0.95 || prevModel < 0.99 {
		t.Errorf("curves did not saturate: sim %v, model %v", prevSim, prevModel)
	}
}

// TestMultiCopyDeliveryAtLeastSingle checks the Fig. 10 ordering on a
// full simulation.
func TestMultiCopyDeliveryAtLeastSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	g := contact.NewRandom(60, 1, 360, rng.New(31))
	sets := [][]contact.NodeID{
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9, 10},
		{11, 12, 13, 14, 15},
	}
	rate := func(l int) float64 {
		const runs = 3000
		delivered := 0
		for i := 0; i < runs; i++ {
			p := Params{Src: 0, Dst: 59, Sets: sets, Copies: l, Spray: true}
			r, err := SampleOnion(g, p, 240, rng.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Delivered {
				delivered++
			}
		}
		return float64(delivered) / runs
	}
	r1, r3, r5 := rate(1), rate(3), rate(5)
	if !(r1 <= r3+0.02 && r3 <= r5+0.02) {
		t.Fatalf("delivery rates not increasing with L: %v, %v, %v", r1, r3, r5)
	}
	if r5 <= r1 {
		t.Fatalf("L=5 (%v) shows no improvement over L=1 (%v)", r5, r1)
	}
}

// TestEpidemicDominatesOnion: flooding is the delivery-rate upper
// bound (Sec. VI-A).
func TestEpidemicDominatesOnion(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	g := contact.NewRandom(40, 1, 360, rng.New(41))
	sets := [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	const deadline = 120
	const runs = 2000
	onionDelivered, epiDelivered := 0, 0
	for i := 0; i < runs; i++ {
		p := Params{Src: 0, Dst: 39, Sets: sets, Copies: 1}
		r, err := SampleOnion(g, p, deadline, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Delivered {
			onionDelivered++
		}
		e, err := NewEpidemic(0, 39)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, deadline, rng.New(uint64(i)).Split("epi"), e)
		if e.Result().Delivered {
			epiDelivered++
		}
	}
	if epiDelivered < onionDelivered {
		t.Fatalf("epidemic (%d) delivered less than anonymous onion routing (%d)", epiDelivered, onionDelivered)
	}
}

func BenchmarkSampleOnionSingle(b *testing.B) {
	g := contact.NewRandom(100, 1, 360, rng.New(1))
	sets := [][]contact.NodeID{
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9, 10},
		{11, 12, 13, 14, 15},
	}
	p := Params{Src: 0, Dst: 99, Sets: sets, Copies: 1}
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleOnion(g, p, 1800, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleOnionSpray5(b *testing.B) {
	g := contact.NewRandom(100, 1, 360, rng.New(1))
	sets := [][]contact.NodeID{
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9, 10},
		{11, 12, 13, 14, 15},
	}
	p := Params{Src: 0, Dst: 99, Sets: sets, Copies: 5, Spray: true, RunToCompletion: true}
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleOnion(g, p, 1800, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullEngineOnion(b *testing.B) {
	g := contact.NewRandom(100, 1, 360, rng.New(1))
	sets := [][]contact.NodeID{
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9, 10},
		{11, 12, 13, 14, 15},
	}
	p := Params{Src: 0, Dst: 99, Sets: sets, Copies: 1}
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := NewOnion(p)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunSynthetic(g, 1800, s, o)
	}
}

// TestSamplerDeliveryTimeDistributionKS is the strongest equivalence
// check between the direct sampler and the brute-force engine: the
// full delivery-time DISTRIBUTIONS must pass a two-sample
// Kolmogorov-Smirnov test, not just agree in the mean.
func TestSamplerDeliveryTimeDistributionKS(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	g := contact.NewRandom(25, 1, 60, rng.New(77))
	sets := [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}}
	p := Params{Src: 0, Dst: 24, Sets: sets, Copies: 2, Spray: true}
	const runs = 4000
	const horizon = 1e6 // effectively unbounded: compare full distributions

	var sampleTimes, engineTimes []float64
	for i := 0; i < runs; i++ {
		r, err := SampleOnion(g, p, horizon, rng.New(uint64(i)).Split("s"))
		if err != nil {
			t.Fatal(err)
		}
		if r.Delivered {
			sampleTimes = append(sampleTimes, r.Time)
		}
		o, err := NewOnion(p)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSynthetic(g, horizon, rng.New(uint64(i)).Split("e"), o)
		if er := o.Result(); er.Delivered {
			engineTimes = append(engineTimes, er.Time)
		}
	}
	if len(sampleTimes) < runs*9/10 || len(engineTimes) < runs*9/10 {
		t.Fatalf("unexpected non-delivery: %d, %d of %d", len(sampleTimes), len(engineTimes), runs)
	}
	same, d, err := stats.KSSameDistribution(sampleTimes, engineTimes, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("delivery-time distributions differ: KS D = %v over %d/%d samples",
			d, len(sampleTimes), len(engineTimes))
	}
}
