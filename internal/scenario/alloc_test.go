package scenario

import (
	"testing"

	"repro/internal/rng"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestTraceSecurityTrialAllocs pins the exact allocations of one
// trace-population security trial at the Infocom population (n=41,
// g=5, K=3): none. The trial stream and its splits are reseeded in
// place and the draws run on a pooled table.
func TestTraceSecurityTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	root := rng.New(1)
	for _, c := range []struct {
		kind   string
		copies int
	}{
		{KindSecurityPoint, 1},
		{KindAnonymity, 1},
		{KindAnonymity, 5},
	} {
		for _, frac := range []float64{0.01, 0.1, 0.5} {
			i := 0
			got := testing.AllocsPerRun(100, func() {
				if _, err := traceSecurityTrial(root, i, c.kind, 41, 5, 3, c.copies, frac); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if got != 0 {
				t.Errorf("%s L=%d c/n=%v: one trace security trial allocates %v times, want 0", c.kind, c.copies, frac, got)
			}
		}
	}
}
