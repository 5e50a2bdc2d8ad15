package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// faultOptions keeps the ablation-faults sweep affordable in tests:
// 25 abstract trials per rate and the minimum 20-message runtime
// workload per (rate, rep) cell.
func faultOptions(seed uint64, workers int) Options {
	return Options{Seed: seed, Runs: 25, SecurityRuns: 50, TraceRuns: 4, Workers: workers}
}

// TestFaultScheduleWorkerInvariance extends the PR 1 determinism
// contract to the fault-injection pipeline: the ablation-faults figure
// — whose runtime series injects truncations, corruptions, duplicates
// and crashes into real encrypted hand-offs — must marshal to
// byte-identical JSON for Workers in {1, 4, GOMAXPROCS} at two seeds.
// Fault schedules are drawn from per-cell rng substreams, never from
// shared state, so the worker count cannot perturb them.
func TestFaultScheduleWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the figure several times")
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{1, 42} {
		var reference []byte
		for _, w := range workerCounts {
			fig, err := Generate("ablation-faults", faultOptions(seed, w))
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
}

// TestFaultScheduleSeedsDiffer guards the invariance test against
// vacuity: distinct seeds must produce distinct fault realizations and
// therefore distinct figures.
func TestFaultScheduleSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the figure twice")
	}
	a, err := Generate("ablation-faults", faultOptions(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("ablation-faults", faultOptions(42, 2))
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
		t.Fatal("seeds 1 and 42 produced byte-identical ablation-faults figures; the invariance test would be vacuous")
	}
}

// TestFaultAblationShapes checks the physics of the figure on one cheap
// generation: delivery falls monotonically (within noise) as the fault
// rate rises in both the thinned analysis and the abstract simulation,
// the ideal-analysis and anonymity series stay flat, and the runtime
// series actually injected faults (non-vacuity).
func TestFaultAblationShapes(t *testing.T) {
	fig, err := Generate("ablation-faults", faultOptions(7, runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, s := range fig.Series {
		byName[s.Name] = i
	}
	get := func(name string) []float64 {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("series %q missing (have %v)", name, byName)
		}
		return fig.Series[i].Y
	}
	ideal := get("Analysis (Eq. 4-7, ideal contacts)")
	thinned := get("Analysis (thinned to λ(1-p))")
	anon := get("Path anonymity (model, c/n=10%)")
	for i := 1; i < len(ideal); i++ {
		if ideal[i] != ideal[0] {
			t.Errorf("ideal analysis not flat: y[%d]=%v vs y[0]=%v", i, ideal[i], ideal[0])
		}
		if anon[i] != anon[0] {
			t.Errorf("anonymity not flat: y[%d]=%v vs y[0]=%v", i, anon[i], anon[0])
		}
	}
	if thinned[0] != ideal[0] {
		t.Errorf("thinned analysis at rate 0 is %v, want the ideal value %v", thinned[0], ideal[0])
	}
	// Strict monotonicity holds for the analytical series (no noise).
	for i := 1; i < len(thinned); i++ {
		if thinned[i] >= thinned[i-1] {
			t.Errorf("thinned analysis not strictly decreasing at index %d: %v -> %v", i, thinned[i-1], thinned[i])
		}
	}
	// The endpoints of the noisy simulated series must fall.
	sim := get("Simulation (abstract, lossy contacts)")
	rt := get("Runtime (full crypto, uniform faults)")
	last := len(sim) - 1
	if sim[last] >= sim[0] {
		t.Errorf("abstract simulation did not degrade: rate 0 %.3f vs max rate %.3f", sim[0], sim[last])
	}
	if rt[last] >= rt[0] {
		t.Errorf("runtime did not degrade: rate 0 %.3f vs max rate %.3f", rt[0], rt[last])
	}
	// Non-vacuity: the notes must report injected faults.
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "truncations") && !strings.Contains(n, " 0 truncations") {
			found = true
		}
	}
	if !found {
		t.Errorf("no injected-faults note in %v", fig.Notes)
	}
}
