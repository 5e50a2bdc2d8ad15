package core

import (
	"testing"

	"repro/internal/adversary"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestFastSecurityTrialAllocs pins the exact allocations of one fast
// security trial: none. The trial stream and its splits are reseeded in
// place and every draw runs on a pooled table, so the count depends on
// neither the compromised fraction nor the metric drawn: the figures'
// single-metric calls and the sweep table's both-metrics
// FastSecurityTrial all allocate nothing.
func TestFastSecurityTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	for _, c := range []struct{ relays, copies int }{{3, 1}, {10, 3}} {
		cfg := DefaultConfig()
		cfg.Relays, cfg.Copies = c.relays, c.copies
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct {
			name  string
			trial func(frac float64, i int) (SecurityOutcome, error)
		}{
			{"FastSecurityTrial", nw.FastSecurityTrial},
			{"FastSecurity(Traceable)", func(frac float64, i int) (SecurityOutcome, error) {
				return nw.FastSecurity(frac, i, adversary.Traceable)
			}},
			{"FastSecurity(Positions)", func(frac float64, i int) (SecurityOutcome, error) {
				return nw.FastSecurity(frac, i, adversary.Positions)
			}},
		} {
			for _, frac := range []float64{0.01, 0.1, 0.5} {
				i := 0
				got := testing.AllocsPerRun(100, func() {
					if _, err := call.trial(frac, i); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if got != 0 {
					t.Errorf("K=%d L=%d c/n=%v: %s allocates %v times, want 0",
						c.relays, c.copies, frac, call.name, got)
				}
			}
		}
	}
}

func BenchmarkFastSecurity(b *testing.B) {
	for _, c := range []struct {
		name           string
		relays, copies int
		want           adversary.Metric
	}{
		{"K3-L1-traceable", 3, 1, adversary.Traceable},
		{"K3-L1-both", 3, 1, adversary.Traceable | adversary.Positions},
		{"K10-L3-anonymity", 10, 3, adversary.Positions},
		{"K10-L3-both", 10, 3, adversary.Traceable | adversary.Positions},
	} {
		cfg := DefaultConfig()
		cfg.Relays, cfg.Copies = c.relays, c.copies
		nw, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nw.FastSecurity(0.25, i, c.want); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
