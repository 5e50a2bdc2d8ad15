package core

import (
	"math"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"too few nodes": func(c *Config) { c.Nodes = 2 },
		"zero group":    func(c *Config) { c.GroupSize = 0 },
		"group > n":     func(c *Config) { c.GroupSize = 101 },
		"zero relays":   func(c *Config) { c.Relays = 0 },
		"zero copies":   func(c *Config) { c.Copies = 0 },
		"bad ICT":       func(c *Config) { c.MinICT = 10; c.MaxICT = 5 },
	}
	for name, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestNewNetworkDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := a.NewTrial(7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.NewTrial(7)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Src != tb.Src || ta.Dst != tb.Dst {
		t.Fatal("same seed produced different trials")
	}
	for i := range ta.Rates {
		if ta.Rates[i] != tb.Rates[i] {
			t.Fatal("same seed produced different rates")
		}
	}
}

func TestTrialShape(t *testing.T) {
	nw, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tr, err := nw.NewTrial(i)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Src == tr.Dst {
			t.Fatal("trial with identical endpoints")
		}
		if len(tr.Sets) != 3 || tr.Eta() != 4 {
			t.Fatalf("K=%d eta=%d", len(tr.Sets), tr.Eta())
		}
		if len(tr.Rates) != 4 {
			t.Fatalf("rates = %d", len(tr.Rates))
		}
		for _, set := range tr.Sets {
			for _, v := range set {
				if v == tr.Src || v == tr.Dst {
					t.Fatal("endpoint inside an onion group")
				}
			}
		}
	}
}

func TestRouteAndModelAgreeOnSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 50
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := nw.NewTrial(0)
	if err != nil {
		t.Fatal(err)
	}
	// Enormous deadline: both simulation and model must deliver.
	res, err := nw.Route(tr, 1e7, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("not delivered with huge deadline")
	}
	m, err := nw.ModelDelivery(tr, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if m < 0.999 {
		t.Fatalf("model did not saturate: %v", m)
	}
	if res.Transmissions != 4 { // single copy: K+1
		t.Fatalf("transmissions = %d", res.Transmissions)
	}
}

func TestSecurityFromResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 50
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := nw.NewTrial(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Route(tr, 1e7, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, ok, err := nw.SecurityFromResult(res, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no delivered copy")
	}
	if out.TraceableRate < 0 || out.TraceableRate > 1 {
		t.Fatalf("traceable rate %v", out.TraceableRate)
	}
	if out.PathAnonymity < 0 || out.PathAnonymity > 1 {
		t.Fatalf("anonymity %v", out.PathAnonymity)
	}
	// Zero compromise: metrics at their extremes.
	clean, ok, err := nw.SecurityFromResult(res, 0, 2)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if clean.TraceableRate != 0 || math.Abs(clean.PathAnonymity-1) > 1e-12 {
		t.Fatalf("clean outcome: %+v", clean)
	}
}

func TestFastSecurityTrialStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical check")
	}
	cfg := DefaultConfig()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const frac = 0.2
	const runs = 20000
	var trSum, anSum float64
	for i := 0; i < runs; i++ {
		out, err := nw.FastSecurityTrial(frac, i)
		if err != nil {
			t.Fatal(err)
		}
		trSum += out.TraceableRate
		anSum += out.PathAnonymity
	}
	gotTR, gotAN := trSum/runs, anSum/runs
	wantTR := nw.ModelTraceableRate(frac)
	wantAN := nw.ModelPathAnonymity(frac)
	if math.Abs(gotTR-wantTR) > 0.01 {
		t.Errorf("traceable: measured %v vs model %v", gotTR, wantTR)
	}
	if math.Abs(gotAN-wantAN) > 0.02 {
		t.Errorf("anonymity: measured %v vs model %v", gotAN, wantAN)
	}
}

func buildTraceNetwork(t *testing.T) *TraceNetwork {
	t.Helper()
	tr, err := trace.GenerateCambridge(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTraceNetwork(tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestTraceNetworkTrial(t *testing.T) {
	tn := buildTraceNetwork(t)
	if tn.tr.NodeCount != 12 {
		t.Fatalf("N = %d", tn.tr.NodeCount)
	}
	for i := 0; i < 20; i++ {
		tr, err := tn.NewTrial(i, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Src == tr.Dst {
			t.Fatal("identical endpoints")
		}
		if len(tr.Sets) != 3 {
			t.Fatalf("K = %d", len(tr.Sets))
		}
		if tr.Start < 0 {
			t.Fatalf("start %v", tr.Start)
		}
	}
}

func TestTraceNetworkRouteDelivers(t *testing.T) {
	tn := buildTraceNetwork(t)
	delivered := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		tr, err := tn.NewTrial(i, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Route(tr, 3600, 1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
			if res.Time < tr.Start {
				t.Fatalf("delivered before start: %v < %v", res.Time, tr.Start)
			}
			if res.Time-tr.Start > 3600 {
				t.Fatalf("delivered past deadline: %v", res.Time-tr.Start)
			}
		}
	}
	// Cambridge is dense: most messages should arrive within an hour
	// of active time.
	if delivered < trials/2 {
		t.Fatalf("only %d/%d delivered on the dense trace", delivered, trials)
	}
}

func TestTraceNetworkModelDelivery(t *testing.T) {
	tn := buildTraceNetwork(t)
	tr, err := tn.NewTrial(0, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tn.ModelDelivery(tr, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("fitted rates unavailable for this trial")
	}
	if v < 0.9 {
		t.Fatalf("model delivery %v too low for a full-day deadline", v)
	}
}

func BenchmarkNetworkRoute(b *testing.B) {
	nw, err := NewNetwork(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := nw.NewTrial(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(tr, 1800, false, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceRoute(b *testing.B) {
	tr, err := trace.GenerateCambridge(rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	tn, err := NewTraceNetwork(tr, 9)
	if err != nil {
		b.Fatal(err)
	}
	trial, err := tn.NewTrial(0, 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Route(trial, 1800, 1, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAccessors(t *testing.T) {
	cfg := DefaultConfig()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.cfg.Nodes != cfg.Nodes {
		t.Fatal("Config accessor wrong")
	}
	if nw.Graph().N() != cfg.Nodes {
		t.Fatal("Graph accessor wrong")
	}
	if nw.groups.N() != cfg.Nodes {
		t.Fatal("Groups accessor wrong")
	}
	tn := buildTraceNetwork(t)
	if tn.tr.NodeCount != 12 || tn.rates.N() != 12 {
		t.Fatal("trace accessors wrong")
	}
}

func TestNewNetworkRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("accepted bad config")
	}
}

func TestNewTraceNetworkRejectsBadTrace(t *testing.T) {
	bad := &trace.Trace{NodeCount: 2, Contacts: []trace.Contact{{A: 0, B: 1, Start: 0, End: 0}}}
	if _, err := NewTraceNetwork(bad, 1); err == nil {
		t.Fatal("accepted zero-duration trace")
	}
}

func TestSecurityFromResultUndelivered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 30
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := nw.NewTrial(0)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny deadline: almost surely undelivered.
	res, err := nw.Route(tr, 1e-9, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Skip("improbably delivered")
	}
	_, ok, err := nw.SecurityFromResult(res, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("security outcome from an undelivered message")
	}
}

func TestSecurityFromResultBadFraction(t *testing.T) {
	nw, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := nw.NewTrial(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Route(tr, 1e7, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nw.SecurityFromResult(res, 1.5, 0); err == nil {
		t.Fatal("accepted fraction > 1")
	}
	if _, err := nw.FastSecurityTrial(-0.5, 0); err == nil {
		t.Fatal("accepted negative fraction")
	}
}

func TestTraceModelDeliveryNilRates(t *testing.T) {
	tn := buildTraceNetwork(t)
	trial := &TraceTrial{Src: 0, Dst: 1, Sets: [][]contact.NodeID{{2}}, Rates: nil, Start: 0}
	_, ok, err := tn.ModelDelivery(trial, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("model evaluated with nil rates")
	}
	bad := &TraceTrial{Rates: []float64{1}, Start: 0}
	if _, _, err := tn.ModelDelivery(bad, 100, 0); err == nil {
		t.Fatal("accepted zero copies")
	}
}

func TestNewNetworkWithGraph(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 30
	g := contact.NewRandom(30, 1, 100, rng.New(9))
	nw, err := NewNetworkWithGraph(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Graph() != g {
		t.Fatal("network does not use the provided graph")
	}
	// Mismatched size rejected.
	bad := DefaultConfig()
	bad.Nodes = 10
	if _, err := NewNetworkWithGraph(bad, g); err == nil {
		t.Fatal("accepted mismatched node count")
	}
	if _, err := NewNetworkWithGraph(cfg, nil); err == nil {
		t.Fatal("accepted nil graph")
	}
	badCfg := cfg
	badCfg.GroupSize = 0
	if _, err := NewNetworkWithGraph(badCfg, g); err == nil {
		t.Fatal("accepted invalid config")
	}
}

func TestRandDeterministic(t *testing.T) {
	nw, err := NewNetwork(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Rand("x", 3).Uint64()
	b := nw.Rand("x", 3).Uint64()
	c := nw.Rand("x", 4).Uint64()
	if a != b {
		t.Fatal("Rand not deterministic per (label, index)")
	}
	if a == c {
		t.Fatal("Rand does not vary with index")
	}
}

func TestRouteFrom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 40
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const src = contact.NodeID(7)
	for i := 0; i < 20; i++ {
		res, err := nw.RouteFrom(src, i, 1e7)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			continue
		}
		c, ok := res.DeliveredCopy()
		if !ok {
			t.Fatal("delivered without a delivered copy")
		}
		if c.Visits[0].Node != src {
			t.Fatalf("path does not start at the fixed source: %+v", c.Visits[0])
		}
	}
	if _, err := nw.RouteFrom(999, 0, 100); err == nil {
		t.Fatal("accepted out-of-range source")
	}
}
