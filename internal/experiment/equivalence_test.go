package experiment

import (
	"bytes"
	"runtime"
	"testing"
)

// equivalenceOptions keeps the worker-count sweep affordable: the
// figures are regenerated once per worker count per seed.
func equivalenceOptions(seed uint64, workers int) Options {
	return Options{Seed: seed, Runs: 40, SecurityRuns: 200, TraceRuns: 8, Workers: workers}
}

// TestEquivalenceAcrossWorkerCounts is the determinism contract of the
// parallel Monte Carlo harness: for a representative subset of
// generators — a random-graph delivery figure (Fig. 4), the two
// random-network security metrics (Figs. 6 and 8) and a trace-population
// one (Fig. 16), whose trials share the pooled adversary scratch, a
// trace-replay figure (Fig. 14), and the ablations
// exercising the remaining trial shapes — the JSON-marshaled Figure
// must be byte-identical for Workers in {1, 4, GOMAXPROCS}, across two
// different seeds.
func TestEquivalenceAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates figures several times")
	}
	ids := []string{"fig04", "fig06", "fig08", "fig16", "fig14", "fig11", "ablation-baselines", "ablation-predecessor"}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 42} {
				var reference []byte
				for _, w := range workerCounts {
					fig, err := Generate(id, equivalenceOptions(seed, w))
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
					data, err := fig.JSON()
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
					if reference == nil {
						reference = data
						continue
					}
					if !bytes.Equal(reference, data) {
						t.Fatalf("seed %d: workers=%d output differs from workers=%d (%d vs %d bytes)",
							seed, w, workerCounts[0], len(data), len(reference))
					}
				}
			}
		})
	}
}

// TestEquivalenceSeedsDiffer guards the test above against vacuity: a
// harness that ignored the seed entirely would pass the byte-equality
// checks, so assert the two seeds actually produce different figures.
func TestEquivalenceSeedsDiffer(t *testing.T) {
	a, err := Generate("fig04", equivalenceOptions(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("fig04", equivalenceOptions(42, 2))
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, jb) {
		t.Fatal("seeds 1 and 42 produced byte-identical figures; the equivalence test would be vacuous")
	}
}
