package repro

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// benchOptions keeps one figure generation per benchmark iteration at
// a tractable cost while still exercising the full pipeline. Run with
// larger -benchtime (or cmd/figures with bigger run counts) for
// publication-quality curves. Workers is left at 0 (GOMAXPROCS) so
// `go test -bench Fig04 -cpu 1,4` measures the sequential-vs-parallel
// trial fan-out directly; the figures produced are byte-identical at
// every -cpu value.
func benchOptions() experiment.Options {
	return experiment.Options{Seed: 1, Runs: 120, SecurityRuns: 800, TraceRuns: 25, Workers: 0}
}

// benchFigure generates figure or ablation id once per iteration and
// sanity checks it, reporting the wall time per full regeneration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i + 1)
		fig, err := experiment.Generate(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04DeliveryVsDeadlineByGroupSize regenerates Fig. 4:
// delivery rate vs. deadline for g in {1, 5, 10}.
func BenchmarkFig04DeliveryVsDeadlineByGroupSize(b *testing.B) { benchFigure(b, "fig04") }

// BenchmarkFig04Instrumented is BenchmarkFig04 with a live obs
// collector installed, as `-manifest` does. Comparing its ns/op
// against the uninstrumented benchmark measures the full
// observability overhead on a real figure; the exact gate on that
// overhead is experiment's TestObsOnAddsNoPerTrialAllocs.
func BenchmarkFig04Instrumented(b *testing.B) {
	obs.Install(obs.NewCollector())
	defer obs.Install(nil)
	benchFigure(b, "fig04")
}

// BenchmarkFig05DeliveryVsDeadlineByRelays regenerates Fig. 5:
// delivery rate vs. deadline for K in {3, 5, 10}.
func BenchmarkFig05DeliveryVsDeadlineByRelays(b *testing.B) { benchFigure(b, "fig05") }

// BenchmarkFig06TraceableVsCompromised regenerates Fig. 6: traceable
// rate vs. compromised rate for K in {3, 5, 10}.
func BenchmarkFig06TraceableVsCompromised(b *testing.B) { benchFigure(b, "fig06") }

// BenchmarkFig07TraceableVsRelays regenerates Fig. 7: traceable rate
// vs. number of onion relays for c/n in {10%, 20%, 30%}.
func BenchmarkFig07TraceableVsRelays(b *testing.B) { benchFigure(b, "fig07") }

// BenchmarkFig08AnonymityVsCompromised regenerates Fig. 8: path
// anonymity vs. compromised rate for g in {1, 5, 10}.
func BenchmarkFig08AnonymityVsCompromised(b *testing.B) { benchFigure(b, "fig08") }

// BenchmarkFig09AnonymityVsGroupSize regenerates Fig. 9: path
// anonymity vs. group size for c/n in {10%, 20%, 30%}.
func BenchmarkFig09AnonymityVsGroupSize(b *testing.B) { benchFigure(b, "fig09") }

// BenchmarkFig10DeliveryVsDeadlineByCopies regenerates Fig. 10:
// delivery rate vs. deadline for L in {1, 3, 5}.
func BenchmarkFig10DeliveryVsDeadlineByCopies(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11TransmissionsVsCopies regenerates Fig. 11: message
// transmission cost vs. number of copies.
func BenchmarkFig11TransmissionsVsCopies(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12AnonymityVsCompromisedByCopies regenerates Fig. 12:
// path anonymity vs. compromised rate for L in {1, 3, 5}.
func BenchmarkFig12AnonymityVsCompromisedByCopies(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13AnonymityVsGroupSizeByCopies regenerates Fig. 13:
// path anonymity vs. group size for L in {1, 3}.
func BenchmarkFig13AnonymityVsGroupSizeByCopies(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14CambridgeDelivery regenerates Fig. 14: delivery rate
// vs. deadline on the Cambridge trace.
func BenchmarkFig14CambridgeDelivery(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15CambridgeTraceable regenerates Fig. 15: traceable rate
// vs. compromised rate on the Cambridge trace.
func BenchmarkFig15CambridgeTraceable(b *testing.B) { benchFigure(b, "fig15") }

// BenchmarkFig16CambridgeAnonymity regenerates Fig. 16: path anonymity
// vs. compromised rate on the Cambridge trace.
func BenchmarkFig16CambridgeAnonymity(b *testing.B) { benchFigure(b, "fig16") }

// BenchmarkFig17InfocomDelivery regenerates Fig. 17: delivery rate vs.
// deadline on the Infocom 2005 trace.
func BenchmarkFig17InfocomDelivery(b *testing.B) { benchFigure(b, "fig17") }

// BenchmarkFig18InfocomTraceable regenerates Fig. 18: traceable rate
// vs. compromised rate on the Infocom 2005 trace.
func BenchmarkFig18InfocomTraceable(b *testing.B) { benchFigure(b, "fig18") }

// BenchmarkFig19InfocomAnonymity regenerates Fig. 19: path anonymity
// vs. compromised rate on the Infocom 2005 trace.
func BenchmarkFig19InfocomAnonymity(b *testing.B) { benchFigure(b, "fig19") }

// BenchmarkAblationSpray regenerates the strict-vs-spray multi-copy
// ablation (DESIGN.md Sec. 5.3).
func BenchmarkAblationSpray(b *testing.B) { benchFigure(b, "ablation-spray") }

// BenchmarkAblationTraceable regenerates the traceable-rate model
// reconstruction ablation (DESIGN.md Sec. 5.4).
func BenchmarkAblationTraceable(b *testing.B) { benchFigure(b, "ablation-traceable") }

// BenchmarkAblationTPS regenerates the onion-vs-TPS comparison
// (Sec. VI-C extension).
func BenchmarkAblationTPS(b *testing.B) { benchFigure(b, "ablation-tps") }

// BenchmarkAblationModelGap regenerates the delivery-model optimism
// decomposition (DESIGN.md Sec. 5.1).
func BenchmarkAblationModelGap(b *testing.B) { benchFigure(b, "ablation-model-gap") }

// BenchmarkAblationBaselines regenerates the price-of-anonymity
// comparison against non-anonymous DTN protocols (Sec. VI-A).
func BenchmarkAblationBaselines(b *testing.B) { benchFigure(b, "ablation-baselines") }

// BenchmarkAblationPredecessor regenerates the predecessor-attack
// longitudinal experiment.
func BenchmarkAblationPredecessor(b *testing.B) { benchFigure(b, "ablation-predecessor") }

// BenchmarkAblationBuffers regenerates the buffer-pressure experiment
// on the full-crypto runtime.
func BenchmarkAblationBuffers(b *testing.B) { benchFigure(b, "ablation-buffers") }

// BenchmarkAblationFaults regenerates the fault-injection sweep:
// delivery/cost/anonymity vs. fault rate across the analysis, the
// abstract simulation, and the full-crypto runtime.
func BenchmarkAblationFaults(b *testing.B) { benchFigure(b, "ablation-faults") }
