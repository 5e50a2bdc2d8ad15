package experiment

import (
	"math"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	reg, ids := AblationRegistry()
	if len(ids) != 8 {
		t.Fatalf("ablations = %d", len(ids))
	}
	for _, id := range ids {
		if reg[id] == nil {
			t.Fatalf("nil generator for %s", id)
		}
	}
}

func TestAblationSprayDominatesStrict(t *testing.T) {
	fig := runFigure(t, "ablation-spray")
	strict := mustSeries(t, fig, "Strict (Alg. 2)")
	spray := mustSeries(t, fig, "Spray (Sec. V variant)")
	// Spray must not lose overall, and must win somewhere early.
	if seriesMean(spray) < seriesMean(strict)-0.02 {
		t.Fatalf("spray mean %v below strict %v", seriesMean(spray), seriesMean(strict))
	}
	won := false
	for i := range spray.Y {
		if spray.Y[i] > strict.Y[i]+0.01 {
			won = true
		}
		if strict.Y[i] > spray.Y[i]+0.08 {
			t.Fatalf("strict beats spray at point %d by %v", i, strict.Y[i]-spray.Y[i])
		}
	}
	if !won {
		t.Log("spray never strictly ahead at this run count (acceptable but unusual)")
	}
}

func TestAblationTraceableModels(t *testing.T) {
	fig := runFigure(t, "ablation-traceable")
	exact := mustSeries(t, fig, "Exact expectation")
	approx := mustSeries(t, fig, "Paper approximation (Eqs. 8-12)")
	mc := mustSeries(t, fig, "Monte Carlo")
	for i := range exact.Y {
		// The exact model must track Monte Carlo tightly everywhere.
		if math.Abs(exact.Y[i]-mc.Y[i]) > 0.03 {
			t.Fatalf("point %d: exact %v vs MC %v", i, exact.Y[i], mc.Y[i])
		}
	}
	// The paper approximation is close for small c/n but departs for
	// large c/n (its stated validity regime is c << n).
	if math.Abs(approx.Y[0]-exact.Y[0]) > 0.02 {
		t.Fatalf("approximation wrong even at c/n=1%%: %v vs %v", approx.Y[0], exact.Y[0])
	}
	last := len(exact.Y) - 1
	if math.Abs(approx.Y[last]-exact.Y[last]) < 0.01 {
		t.Log("approximation unexpectedly tight at 50% compromise")
	}
}

func TestAblationTPSShape(t *testing.T) {
	fig := runFigure(t, "ablation-tps")
	onion3 := mustSeries(t, fig, "Onion groups (K=3)")
	onion10 := mustSeries(t, fig, "Onion groups (K=10)")
	tps := mustSeries(t, fig, "TPS (s=3, tau=2)")
	// Short onion paths dominate long ones.
	if seriesMean(onion3) <= seriesMean(onion10) {
		t.Fatalf("K=3 onion mean %v not above K=10 %v", seriesMean(onion3), seriesMean(onion10))
	}
	// The reproduction's finding: TPS's single-node pivot bottleneck
	// keeps it below the short group-aggregated onion path, roughly in
	// the league of a very long one.
	if seriesMean(tps) >= seriesMean(onion3) {
		t.Fatalf("TPS mean %v not below K=3 onion %v", seriesMean(tps), seriesMean(onion3))
	}
	if lastY(tps) < 0.3 {
		t.Fatalf("TPS never gets off the ground: %v", lastY(tps))
	}
	for i := 1; i < len(tps.Y); i++ {
		if tps.Y[i] < tps.Y[i-1]-1e-9 {
			t.Fatal("TPS delivery curve not monotone")
		}
	}
}

func TestAblationModelGapDecomposition(t *testing.T) {
	fig := runFigure(t, "ablation-model-gap")
	paper := mustSeries(t, fig, "Analysis (Eq. 4 as printed)")
	corr := mustSeries(t, fig, "Analysis (last hop averaged)")
	sim := mustSeries(t, fig, "Simulation")
	// The printed model is at least as optimistic as the corrected one
	// everywhere.
	for i := range paper.Y {
		if paper.Y[i] < corr.Y[i]-1e-9 {
			t.Fatalf("point %d: printed model %v below corrected %v", i, paper.Y[i], corr.Y[i])
		}
	}
	// With homogeneous rates the corrected model matches simulation.
	if math.Abs(corr.Y[0]-sim.Y[0]) > 0.1 {
		t.Fatalf("corrected model %v vs sim %v at homogeneous rates", corr.Y[0], sim.Y[0])
	}
	// The printed model's gap at homogeneous rates is the last-hop
	// aggregation artifact: it must exceed the corrected model's gap.
	paperGap := paper.Y[0] - sim.Y[0]
	corrGap := math.Abs(corr.Y[0] - sim.Y[0])
	if paperGap <= corrGap {
		t.Fatalf("last-hop artifact not visible: paper gap %v vs corrected gap %v", paperGap, corrGap)
	}
	// Heterogeneity widens the corrected model's gap.
	lastGap := corr.Y[len(corr.Y)-1] - sim.Y[len(sim.Y)-1]
	if lastGap <= corrGap {
		t.Log("heterogeneity gap did not widen at this run count")
	}
}

func TestAblationBaselinesShape(t *testing.T) {
	fig := runFigure(t, "ablation-baselines")
	epi := mustSeries(t, fig, "Epidemic")
	onion1 := mustSeries(t, fig, "Onion (K=3, L=1)")
	direct := mustSeries(t, fig, "Direct delivery")
	// Epidemic dominates everything; the onion sits between direct
	// delivery and epidemic.
	for i := range epi.Y {
		if epi.Y[i] < onion1.Y[i]-0.05 {
			t.Fatalf("epidemic below onion at point %d", i)
		}
	}
	// On a complete contact graph even direct delivery (one hop) beats
	// the onion's K+1 serial hops — the starkest view of anonymity's
	// delivery cost.
	if seriesMean(direct) <= seriesMean(onion1)-0.05 {
		t.Fatalf("expected direct %v to be at least competitive with onion %v",
			seriesMean(direct), seriesMean(onion1))
	}
	// PRoPHET beats direct delivery (history helps).
	prophet := mustSeries(t, fig, "PRoPHET")
	if seriesMean(prophet) <= seriesMean(direct) {
		t.Fatalf("prophet mean %v not above direct %v", seriesMean(prophet), seriesMean(direct))
	}
}

func TestAblationPredecessorShape(t *testing.T) {
	fig := runFigure(t, "ablation-predecessor")
	single := mustSeries(t, fig, "L=1 (single copy)")
	// With enough observations the attack succeeds far above the 1/n
	// prior against a single-copy source.
	if lastY(single) < 0.3 {
		t.Fatalf("attack never gets traction: %v", single.Y)
	}
	if single.Y[0] >= lastY(single) {
		t.Fatalf("attack does not improve with observations: %v", single.Y)
	}
}

func TestAblationBuffersShape(t *testing.T) {
	fig := runFigure(t, "ablation-buffers")
	plain := mustSeries(t, fig, "No acknowledgements")
	anti := mustSeries(t, fig, "Anti-packets")
	// Unlimited buffers deliver more than 1-onion buffers.
	if lastY(plain) <= plain.Y[0] {
		t.Fatalf("delivery not improved by buffers: %v", plain.Y)
	}
	// Anti-packets never hurt, and help somewhere under pressure.
	helped := false
	for i := range anti.Y {
		if anti.Y[i] < plain.Y[i]-0.07 {
			t.Fatalf("anti-packets hurt at point %d: %v vs %v", i, anti.Y[i], plain.Y[i])
		}
		if anti.Y[i] > plain.Y[i]+0.03 {
			helped = true
		}
	}
	if !helped {
		t.Log("anti-packets made no measurable difference at this effort (acceptable)")
	}
}
