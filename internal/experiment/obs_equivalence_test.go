package experiment

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
)

// TestObsByteIdentical enforces the observability layer's central
// invariant: an instrumented run — collector installed, manifest
// written — produces byte-identical figure JSON to an uninstrumented
// run, across seeds {1, 42} x workers {1, 4}. Instrumentation draws
// no RNG state and changes no control flow, so the only difference
// between the two runs may be the manifest file on disk.
func TestObsByteIdentical(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("a collector is already installed; test requires the disabled default state")
	}
	gen := func(t *testing.T, opt Options) []byte {
		t.Helper()
		fig, err := Generate("fig04", opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.Validate(); err != nil {
			t.Fatal(err)
		}
		js, err := fig.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	for _, seed := range []uint64{1, 42} {
		for _, workers := range []int{1, 4} {
			opt := Options{Seed: seed, Runs: 40, SecurityRuns: 100, TraceRuns: 5, Workers: workers}

			plain := gen(t, opt)

			// Instrumented run: the full command lifecycle, including
			// the manifest write.
			manifest := filepath.Join(t.TempDir(), "manifest.json")
			rf := &obs.RunFlags{ManifestPath: manifest, Profiles: &obs.Profiles{}}
			run, err := rf.Begin("experiment-test", nil)
			if err != nil {
				t.Fatal(err)
			}
			if obs.Active() == nil {
				t.Fatal("Begin with a manifest path did not install a collector")
			}
			instrumented := gen(t, opt)
			if err := run.Finish(opt, seed, workers, 0); err != nil {
				t.Fatal(err)
			}
			if obs.Active() != nil {
				t.Fatal("Finish left a collector installed")
			}

			if !bytes.Equal(plain, instrumented) {
				t.Errorf("seed %d workers %d: instrumented figure JSON differs from uninstrumented (%d vs %d bytes)",
					seed, workers, len(plain), len(instrumented))
			}

			raw, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			m, err := obs.ValidateManifestBytes(raw)
			if err != nil {
				t.Fatalf("seed %d workers %d: manifest invalid: %v", seed, workers, err)
			}
			// The instrumented run must actually have observed the
			// simulation: fig04 drives the abstract sampler.
			for _, name := range []string{"routing.contacts", "routing.handoffs", "experiment.trials"} {
				v, ok := m.Counter(name)
				if !ok {
					t.Fatalf("manifest missing counter %q", name)
				}
				if v == 0 {
					t.Errorf("seed %d workers %d: counter %q is zero; instrumentation not reaching the hot path", seed, workers, name)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestObsOnAddsNoPerTrialAllocs is the exact form of the observability
// overhead gate. A live collector may cost a few allocations per figure
// (phase records, first touches), but none per trial: the on-minus-off
// allocation count of fig04 must not grow when Runs quadruples. An
// allocation count is exact on any machine, where a wall-time ratio on
// a shared runner is not.
func TestObsOnAddsNoPerTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	if obs.Active() != nil {
		t.Fatal("a collector is already installed; test requires the disabled default state")
	}
	allocs := func(runs int, on bool) float64 {
		if on {
			obs.Install(obs.NewCollector())
			defer obs.Install(nil)
		}
		opt := Options{Seed: 1, Runs: runs, SecurityRuns: 100, TraceRuns: 5, Workers: 1}
		return testing.AllocsPerRun(10, func() {
			if _, err := Generate("fig04", opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Left running, the garbage collector makes either count jitter by
	// an allocation or two between measurements; with it held off the
	// counts repeat exactly.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	var extra [2]float64
	for i, r := range []int{runs, 4 * runs} {
		off, on := allocs(r, false), allocs(r, true)
		extra[i] = on - off
		t.Logf("Runs %d: %.0f allocs off, %.0f on (%+.0f)", r, off, on, extra[i])
	}
	if d := extra[1] - extra[0]; math.Abs(d) > 2 {
		t.Errorf("obs-on extra allocations grow with Runs: %+.0f at Runs %d, %+.0f at Runs %d", extra[0], runs, extra[1], 4*runs)
	}
}
