package scenario

import (
	"testing"

	"repro/internal/core"
)

// kSweepSpec is a 10-value relay-count sweep over the full deadline
// axis — the shape where the delivery memo cache pays: every trial
// evaluates the analytical curve at 12 deadlines, and each trial's
// evaluator (coefficient precomputation) is shared across them.
func kSweepSpec() Scenario {
	return Scenario{
		ID:     "bench-k-sweep",
		Title:  "bench",
		XLabel: "deadline",
		YLabel: "delivery",
		Base:   core.DefaultConfig(),
		Series: Axis{
			Param:       "Relays",
			Values:      []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			LabelFormat: "K=%d",
		},
		X:       Axis{Param: ParamDeadline, Values: DeliveryDeadlines()},
		Measure: Measure{Kind: KindDeliveryCurve},
	}
}

// BenchmarkSweepModelCached measures the 10-value K-sweep through the
// engine memo caches, whose values equal direct model calls bit for
// bit (see TestEngineCacheBitIdentity).
func BenchmarkSweepModelCached(b *testing.B) {
	opt := Options{Seed: 1, Runs: 40, SecurityRuns: 1, TraceRuns: 1, Workers: 1}
	spec := kSweepSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(opt).Run(&spec); err != nil {
			b.Fatal(err)
		}
	}
}
