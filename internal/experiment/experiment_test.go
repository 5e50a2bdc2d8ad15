package experiment

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// fastOptions keeps unit-test runtime low; the statistical fidelity of
// each figure is covered by the shape tests below and by the cross
// checks in the adversary/routing packages.
func fastOptions() Options {
	return Options{Seed: 1, Runs: 60, SecurityRuns: 400, TraceRuns: 15}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Options{Seed: 1, Runs: 0, SecurityRuns: 1, TraceRuns: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero runs")
	}
	if _, err := Generate("fig04", bad); err == nil {
		t.Fatal("generator accepted invalid options")
	}
	negWorkers := Options{Seed: 1, Runs: 1, SecurityRuns: 1, TraceRuns: 1, Workers: -1}
	if err := negWorkers.Validate(); err == nil {
		t.Fatal("accepted negative workers")
	}
	if _, err := Generate("fig04", negWorkers); err == nil {
		t.Fatal("generator accepted negative workers")
	}
	for _, w := range []int{0, 1, 8} {
		ok := Options{Seed: 1, Runs: 1, SecurityRuns: 1, TraceRuns: 1, Workers: w}
		if err := ok.Validate(); err != nil {
			t.Fatalf("rejected workers=%d: %v", w, err)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg, ids := Registry()
	if len(ids) != 16 {
		t.Fatalf("expected 16 figures (4-19), got %d", len(ids))
	}
	for i, want := range []string{
		"fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
	} {
		if ids[i] != want {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want)
		}
		if reg[want] == nil {
			t.Fatalf("no generator for %s", want)
		}
	}
}

// runFigure generates a figure with fast options and validates it.
func runFigure(t *testing.T, id string) *Figure {
	t.Helper()
	fig, err := Generate(id, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	return fig
}

func seriesMean(s *stats.Series) float64 {
	return stats.Mean(s.Y)
}

func lastY(s *stats.Series) float64 { return s.Y[len(s.Y)-1] }

func mustSeries(t *testing.T, f *Figure, name string) *stats.Series {
	t.Helper()
	s, ok := f.SeriesByName(name)
	if !ok {
		names := make([]string, len(f.Series))
		for i := range f.Series {
			names[i] = f.Series[i].Name
		}
		t.Fatalf("series %q not in %v", name, names)
	}
	return s
}

func TestFig04Shape(t *testing.T) {
	fig := runFigure(t, "fig04")
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Larger groups deliver more (both in analysis and simulation).
	if seriesMean(mustSeries(t, fig, "Simulation: g=10")) <= seriesMean(mustSeries(t, fig, "Simulation: g=1")) {
		t.Error("simulation: g=10 does not beat g=1")
	}
	if seriesMean(mustSeries(t, fig, "Analysis: g=10")) <= seriesMean(mustSeries(t, fig, "Analysis: g=1")) {
		t.Error("analysis: g=10 does not beat g=1")
	}
	// Saturation at the longest deadline for the biggest group.
	if lastY(mustSeries(t, fig, "Simulation: g=10")) < 0.8 {
		t.Errorf("g=10 did not saturate: %v", lastY(mustSeries(t, fig, "Simulation: g=10")))
	}
}

func TestFig05Shape(t *testing.T) {
	fig := runFigure(t, "fig05")
	// Fewer onion routers deliver faster.
	if seriesMean(mustSeries(t, fig, "Simulation: 3 onions")) <= seriesMean(mustSeries(t, fig, "Simulation: 10 onions")) {
		t.Error("simulation: K=3 does not beat K=10")
	}
	if seriesMean(mustSeries(t, fig, "Analysis: 3 onions")) <= seriesMean(mustSeries(t, fig, "Analysis: 10 onions")) {
		t.Error("analysis: K=3 does not beat K=10")
	}
}

func TestFig06Shape(t *testing.T) {
	fig := runFigure(t, "fig06")
	// Traceable rate grows with the compromised fraction...
	sim := mustSeries(t, fig, "Simulation: 3 onions")
	if lastY(sim) <= sim.Y[0] {
		t.Error("traceable rate not increasing with c/n")
	}
	// ... and shrinks with more onion routers.
	if seriesMean(mustSeries(t, fig, "Simulation: 10 onions")) >= seriesMean(mustSeries(t, fig, "Simulation: 3 onions")) {
		t.Error("K=10 not below K=3")
	}
	// Analysis tracks simulation closely (the paper's headline claim).
	ana := mustSeries(t, fig, "Analysis: 3 onions")
	for i := range sim.Y {
		if d := sim.Y[i] - ana.Y[i]; d > 0.05 || d < -0.05 {
			t.Errorf("point %d: |sim-analysis| = %v", i, d)
		}
	}
}

func TestFig07Shape(t *testing.T) {
	fig := runFigure(t, "fig07")
	// More compromised nodes -> more traceable at any K.
	if seriesMean(mustSeries(t, fig, "Simulation: c/n=30%")) <= seriesMean(mustSeries(t, fig, "Simulation: c/n=10%")) {
		t.Error("c/n=30% not above c/n=10%")
	}
	// Traceable rate decreases in K.
	s := mustSeries(t, fig, "Simulation: c/n=20%")
	if s.Y[len(s.Y)-1] >= s.Y[0] {
		t.Error("traceable rate not decreasing in K")
	}
}

func TestFig08Shape(t *testing.T) {
	fig := runFigure(t, "fig08")
	// Anonymity decreases with c/n, increases with g.
	s1 := mustSeries(t, fig, "Simulation: g=1")
	if lastY(s1) >= s1.Y[0] {
		t.Error("anonymity not decreasing with c/n")
	}
	if seriesMean(mustSeries(t, fig, "Simulation: g=10")) <= seriesMean(mustSeries(t, fig, "Simulation: g=1")) {
		t.Error("g=10 not above g=1")
	}
	// Analysis ~ simulation ("very high accuracy", Sec. V-B).
	for _, g := range []string{"g=1", "g=5", "g=10"} {
		sim := mustSeries(t, fig, "Simulation: "+g)
		ana := mustSeries(t, fig, "Analysis: "+g)
		for i := range sim.Y {
			if d := sim.Y[i] - ana.Y[i]; d > 0.06 || d < -0.06 {
				t.Errorf("%s point %d: |sim-analysis| = %v", g, i, d)
			}
		}
	}
}

func TestFig09Shape(t *testing.T) {
	fig := runFigure(t, "fig09")
	s := mustSeries(t, fig, "Simulation: c/n=10%")
	if lastY(s) <= s.Y[0] {
		t.Error("anonymity not increasing with g")
	}
	if seriesMean(mustSeries(t, fig, "Simulation: c/n=30%")) >= seriesMean(mustSeries(t, fig, "Simulation: c/n=10%")) {
		t.Error("c/n=30% not below c/n=10%")
	}
}

func TestFig10Shape(t *testing.T) {
	fig := runFigure(t, "fig10")
	if seriesMean(mustSeries(t, fig, "Simulation: L=5")) < seriesMean(mustSeries(t, fig, "Simulation: L=1")) {
		t.Error("L=5 not above L=1")
	}
	if seriesMean(mustSeries(t, fig, "Analysis: L=5")) <= seriesMean(mustSeries(t, fig, "Analysis: L=1")) {
		t.Error("analysis: L=5 not above L=1")
	}
}

func TestFig11Shape(t *testing.T) {
	fig := runFigure(t, "fig11")
	non := mustSeries(t, fig, "Non-anonymous")
	ana := mustSeries(t, fig, "Analysis")
	sim := mustSeries(t, fig, "Simulation")
	for i := range non.X {
		l := non.X[i]
		if non.Y[i] != 2*l {
			t.Errorf("non-anonymous cost at L=%v is %v", l, non.Y[i])
		}
		// Simulation is bounded by the analysis and costs more than the
		// non-anonymous baseline at L=1 (K+1 > 2 transmissions).
		if sim.Y[i] > ana.Y[i]+1e-9 {
			t.Errorf("L=%v: simulated cost %v exceeds bound %v", l, sim.Y[i], ana.Y[i])
		}
	}
	// Cost grows with L.
	if lastY(sim) <= sim.Y[0] {
		t.Error("simulated cost not increasing with L")
	}
}

func TestFig12Shape(t *testing.T) {
	fig := runFigure(t, "fig12")
	if seriesMean(mustSeries(t, fig, "Simulation: L=5")) >= seriesMean(mustSeries(t, fig, "Simulation: L=1")) {
		t.Error("anonymity with L=5 not below L=1")
	}
	if seriesMean(mustSeries(t, fig, "Analysis: L=5")) >= seriesMean(mustSeries(t, fig, "Analysis: L=1")) {
		t.Error("analysis: anonymity with L=5 not below L=1")
	}
}

func TestFig13Shape(t *testing.T) {
	fig := runFigure(t, "fig13")
	s := mustSeries(t, fig, "Simulation: L=1")
	if lastY(s) <= s.Y[0] {
		t.Error("anonymity not increasing with g")
	}
	if seriesMean(mustSeries(t, fig, "Simulation: L=3")) >= seriesMean(mustSeries(t, fig, "Simulation: L=1")) {
		t.Error("L=3 not below L=1")
	}
}

func TestFig14Shape(t *testing.T) {
	fig := runFigure(t, "fig14")
	sim := mustSeries(t, fig, "Simulation: L=1")
	// Cambridge is dense: the delivery rate saturates by 1800 s.
	if lastY(sim) < 0.85 {
		t.Errorf("Cambridge delivery did not saturate: %v", lastY(sim))
	}
	for i := 1; i < len(sim.Y); i++ {
		if sim.Y[i] < sim.Y[i-1]-1e-9 {
			t.Error("delivery rate not monotone in deadline")
		}
	}
}

func TestFig15And16Shapes(t *testing.T) {
	f15 := runFigure(t, "fig15")
	sim := mustSeries(t, f15, "Simulation: L=1")
	ana := mustSeries(t, f15, "Analysis: L=1")
	for i := range sim.Y {
		if d := sim.Y[i] - ana.Y[i]; d > 0.06 || d < -0.06 {
			t.Errorf("fig15 point %d: |sim-analysis| = %v", i, d)
		}
	}
	f16 := runFigure(t, "fig16")
	s := mustSeries(t, f16, "Simulation: L=1")
	if lastY(s) >= s.Y[0] {
		t.Error("fig16 anonymity not decreasing")
	}
}

func TestFig17Shape(t *testing.T) {
	fig := runFigure(t, "fig17")
	if !fig.LogX {
		t.Error("Infocom figure should use a log x-axis")
	}
	sim := mustSeries(t, fig, "Simulation: L=1")
	// A plateau exists: somewhere in the middle of the sweep the rate
	// stops increasing for at least two consecutive doublings while
	// not yet saturated.
	plateau := false
	for i := 2; i+1 < len(sim.Y); i++ {
		if sim.Y[i] > 0.05 && sim.Y[i] < 0.95 && sim.Y[i+1]-sim.Y[i-1] < 0.02 {
			plateau = true
		}
	}
	if !plateau {
		t.Errorf("no diurnal plateau in Infocom delivery curve: %v", sim.Y)
	}
	// Delivery eventually improves well beyond the early values.
	if lastY(sim) <= sim.Y[0]+0.2 {
		t.Errorf("delivery did not grow across the sweep: %v", sim.Y)
	}
}

func TestFig18And19Shapes(t *testing.T) {
	f18 := runFigure(t, "fig18")
	sim := mustSeries(t, f18, "Simulation: L=1")
	ana := mustSeries(t, f18, "Analysis: L=1")
	for i := range sim.Y {
		if d := sim.Y[i] - ana.Y[i]; d > 0.06 || d < -0.06 {
			t.Errorf("fig18 point %d: |sim-analysis| = %v", i, d)
		}
	}
	f19 := runFigure(t, "fig19")
	if seriesMean(mustSeries(t, f19, "Simulation: L=5")) >= seriesMean(mustSeries(t, f19, "Simulation: L=1")) {
		t.Error("fig19: L=5 anonymity not below L=1")
	}
}

func TestCSVOutput(t *testing.T) {
	fig := &Figure{
		ID: "figXX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []stats.Series{{Name: "a,b", X: []float64{1}, Y: []float64{2}, CI: []float64{0.1}}},
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "series,x,y,ci\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, `"a,b",1,2,0.1`) {
		t.Fatalf("csv body: %q", csv)
	}
}

func TestRenderOutput(t *testing.T) {
	fig := &Figure{
		ID: "fig99", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []stats.Series{
			{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
		Notes: []string{"a note"},
	}
	out := fig.Render(40, 10)
	for _, want := range []string{"FIG99", "a = up", "b = down", "note: a note", "(x)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	empty := &Figure{ID: "e"}
	if got := empty.Render(40, 10); !strings.Contains(got, "empty") {
		t.Fatalf("empty render: %q", got)
	}
}

func TestRenderLogX(t *testing.T) {
	fig := &Figure{
		ID: "figL", Title: "log", XLabel: "x", LogX: true,
		Series: []stats.Series{{Name: "s", X: []float64{16, 256, 4096}, Y: []float64{0, 0.5, 1}}},
	}
	out := fig.Render(40, 8)
	if !strings.Contains(out, "16") {
		t.Fatalf("log ticks missing:\n%s", out)
	}
}

func TestFigureValidateCatchesEmpty(t *testing.T) {
	f := &Figure{ID: "f"}
	if err := f.Validate(); err == nil {
		t.Fatal("empty figure validated")
	}
	f.Series = []stats.Series{{Name: "s"}}
	if err := f.Validate(); err == nil {
		t.Fatal("empty series validated")
	}
}
