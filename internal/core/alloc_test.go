package core

import "testing"

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestFastSecurityTrialAllocs pins the exact allocations of one fast
// security trial: four stream splits, the adversary, the sender path
// and its bits, and the position occupancy. Every Sample here takes the
// one-allocation small-k or dense path, so the count does not depend
// on the compromised fraction.
func TestFastSecurityTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	for _, c := range []struct {
		relays, copies int
		want           float64
	}{
		{3, 1, 16},
		{10, 3, 23},
	} {
		cfg := DefaultConfig()
		cfg.Relays, cfg.Copies = c.relays, c.copies
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.01, 0.1, 0.5} {
			i := 0
			got := testing.AllocsPerRun(100, func() {
				if _, err := nw.FastSecurityTrial(frac, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if got != c.want {
				t.Errorf("K=%d L=%d c/n=%v: FastSecurityTrial allocates %v times, want %v",
					c.relays, c.copies, frac, got, c.want)
			}
		}
	}
}
