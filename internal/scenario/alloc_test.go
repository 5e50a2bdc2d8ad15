package scenario

import (
	"testing"

	"repro/internal/rng"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestTraceSecurityTrialAllocs pins the exact allocations of one
// trace-population security trial at the Infocom population (n=41,
// g=5, K=3): the trial stream, its "adv" split and the adversary, then
// only what the kind reads — the sender path and its sender bits for
// the traceable rate, the position occupancy for anonymity.
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
		{KindSecurityPoint, 1, 9},
		{KindAnonymity, 1, 12},
		{KindAnonymity, 5, 12},
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
