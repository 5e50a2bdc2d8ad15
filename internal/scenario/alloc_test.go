package scenario

import (
	"testing"

	"repro/internal/rng"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestTraceSecurityTrialAllocs pins the exact allocations of one
// trace-population security trial at the Infocom population (n=41,
// g=5, K=3): the trial stream and its three splits, the adversary, the
// sender path, the position occupancy and, for the traceable rate, the
// sender bits.
func TestTraceSecurityTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	root := rng.New(1)
	for _, c := range []struct {
		kind   string
		copies int
		want   float64
	}{
		{KindSecurityPoint, 1, 16},
		{KindAnonymity, 1, 15},
		{KindAnonymity, 5, 15},
	} {
		i := 0
		got := testing.AllocsPerRun(100, func() {
			if _, err := traceSecurityTrial(root.SplitN("trial", i), c.kind, 41, 5, 3, c.copies, 0.1); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got != c.want {
			t.Errorf("%s L=%d: one trace security trial allocates %v times, want %v", c.kind, c.copies, got, c.want)
		}
	}
}
