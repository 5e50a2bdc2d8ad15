package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// cacheRun evaluates one spec against a shared content-addressed cache
// directory and reports the figure JSON plus the run's cache traffic.
type cacheRunResult struct {
	json   []byte
	hits   int64
	misses int64
	trials int64 // obs ExpTrials: trials executed (cache hits excluded)
}

func cacheRun(t *testing.T, spec scenario.Scenario, opt Options, cacheDir string) cacheRunResult {
	t.Helper()
	if obs.Active() != nil {
		t.Fatal("a collector is already installed")
	}
	c := obs.NewCollector()
	obs.Install(c)
	defer obs.Install(nil)

	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := scenario.NewEngine(opt)
	eng.Supervise(nil, store)
	fig, err := eng.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return cacheRunResult{
		json:   js,
		hits:   c.Get(obs.CacheHits),
		misses: c.Get(obs.CacheMisses),
		trials: c.Get(obs.ExpTrials),
	}
}

// TestCrossEditInvalidation is the tentpole's contract: after a warm
// cache is built for several specs, editing ONE spec's numerical axis
// recomputes only that spec — every other artifact regenerates purely
// from cache, byte-identical, with the hit/miss counters pinned.
func TestCrossEditInvalidation(t *testing.T) {
	opt := Options{Seed: 1, Runs: 30, SecurityRuns: 200, TraceRuns: 5, Workers: 2}
	specs := map[string]scenario.Scenario{}
	for _, s := range FigureSpecs() {
		if s.ID == "fig04" || s.ID == "fig06" {
			specs[s.ID] = s
		}
	}
	if len(specs) != 2 {
		t.Fatalf("registry specs missing: got %v", specs)
	}
	cacheDir := t.TempDir()

	// Cold: every trial is computed, nothing served from cache.
	cold := map[string]cacheRunResult{}
	for id, s := range specs {
		r := cacheRun(t, s, opt, cacheDir)
		if r.misses == 0 {
			t.Fatalf("%s: cold run computed no trials", id)
		}
		if r.hits != 0 {
			t.Fatalf("%s: cold run claims %d cache hits", id, r.hits)
		}
		cold[id] = r
	}

	// Warm: zero computation. The pinned counters: misses == 0, hits ==
	// the cold run's miss count, and ExpTrials == 0 because a hit
	// executes nothing — the machine-independent "warm run executed
	// nothing" gate CI uses.
	for id, s := range specs {
		r := cacheRun(t, s, opt, cacheDir)
		if r.misses != 0 {
			t.Fatalf("%s: warm run recomputed %d trials", id, r.misses)
		}
		if r.hits != cold[id].misses {
			t.Fatalf("%s: warm hits = %d; want %d (the cold miss count)", id, r.hits, cold[id].misses)
		}
		if r.trials != 0 {
			t.Fatalf("%s: warm run passed %d trials into the runner; want 0", id, r.trials)
		}
		if !bytes.Equal(r.json, cold[id].json) {
			t.Fatalf("%s: warm artifact differs from cold artifact", id)
		}
	}

	// Edit fig04's deadline axis — a numerical input. Its content key
	// must move; fig06's must not.
	edited := specs["fig04"]
	edited.X.Values = append([]float64(nil), edited.X.Values...)
	edited.X.Values[len(edited.X.Values)-1] *= 1.25
	fig04 := specs["fig04"]
	oldKey, err := scenario.ContentKey(&fig04, opt)
	if err != nil {
		t.Fatal(err)
	}
	newKey, err := scenario.ContentKey(&edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if oldKey == newKey {
		t.Fatal("editing an axis value did not change the content key")
	}

	// Regenerate both: only the edited spec recomputes.
	rEdited := cacheRun(t, edited, opt, cacheDir)
	if rEdited.misses == 0 {
		t.Fatal("edited spec served stale cached results")
	}
	rOther := cacheRun(t, specs["fig06"], opt, cacheDir)
	if rOther.misses != 0 {
		t.Fatalf("unedited spec recomputed %d trials after a foreign edit", rOther.misses)
	}
	if !bytes.Equal(rOther.json, cold["fig06"].json) {
		t.Fatal("unedited spec's artifact changed after a foreign edit")
	}

	// Presentation edits (title, labels, notes) must not move the key:
	// they regenerate from cache without recomputing anything.
	cosmetic := specs["fig04"]
	cosmetic.Title = "A different title"
	cosmetic.XLabel = "relabeled"
	cosmetic.Notes = append([]string{"new note"}, cosmetic.Notes...)
	cosmeticKey, err := scenario.ContentKey(&cosmetic, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cosmeticKey != oldKey {
		t.Fatal("presentation-only edit changed the content key")
	}
	rCosmetic := cacheRun(t, cosmetic, opt, cacheDir)
	if rCosmetic.misses != 0 {
		t.Fatalf("presentation-only edit recomputed %d trials", rCosmetic.misses)
	}
}

// TestContentKeySensitivity pins what the content key must and must
// not react to.
func TestContentKeySensitivity(t *testing.T) {
	base := FigureSpecs()[0]
	opt := Options{Seed: 1, Runs: 30, SecurityRuns: 200, TraceRuns: 5}
	key := func(s scenario.Scenario, o Options) string {
		k, err := scenario.ContentKey(&s, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ref := key(base, opt)

	// Must move: numerical inputs.
	if s := base; true {
		s.Base.Nodes++
		if key(s, opt) == ref {
			t.Fatal("config edit did not move the key")
		}
	}
	if o := opt; true {
		o.Runs++
		if key(base, o) == ref {
			t.Fatal("effort edit did not move the key")
		}
	}
	if o := opt; true {
		o.Seed = 42
		if key(base, o) == ref {
			t.Fatal("seed change did not move the key")
		}
	}
	if o := opt; true {
		o.FaultRate = 0.1
		if key(base, o) == ref {
			t.Fatal("fault-rate change did not move the key")
		}
	}
	if o := opt; true {
		o.SecurityRuns++
		if key(base, o) == ref {
			t.Fatal("security-runs change did not move the key")
		}
	}
	if o := opt; true {
		o.TraceRuns++
		if key(base, o) == ref {
			t.Fatal("trace-runs change did not move the key")
		}
	}
	if key(FigureSpecs()[1], opt) == ref {
		t.Fatal("two different specs share a content key")
	}

	// Must NOT move: presentation and worker count.
	if s := base; true {
		s.Title, s.YLabel, s.LogX = "x", "y", !s.LogX
		s.Series.Labels = []string{}
		s.Series.LabelFormat = "q=%d"
		s.Series.Name = "renamed"
		if key(s, opt) != ref {
			t.Fatal("presentation edit moved the key")
		}
	}
	if o := opt; true {
		o.Workers = 7
		if key(base, o) != ref {
			t.Fatal("worker count moved the key")
		}
	}
}

// TestParentShardServedWarm pins the cache's on-disk frame format
// across releases: a fig04 log written by an earlier release
// (committed under internal/framelog/testdata), planted as the entry's
// log, serves a whole run — zero trials executed, zero cache misses —
// and the figure is byte-identical to a cacheless run.
func TestParentShardServedWarm(t *testing.T) {
	opt := Options{Seed: 1, Runs: 4, SecurityRuns: 4, TraceRuns: 2, Workers: 2}
	var spec scenario.Scenario
	for _, s := range FigureSpecs() {
		if s.ID == "fig04" {
			spec = s
		}
	}
	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join("..", "framelog", "testdata", "parent-fig04.shard"))
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(cacheDir, key), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, key, "trials.log"), shard, 0o644); err != nil {
		t.Fatal(err)
	}

	r := cacheRun(t, spec, opt, cacheDir)
	if r.misses != 0 || r.trials != 0 || r.hits == 0 {
		t.Fatalf("parent shard: cache.misses = %d, experiment.trials = %d, cache.hits = %d; want 0, 0, > 0", r.misses, r.trials, r.hits)
	}
	golden, err := scenario.NewEngine(opt).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, err := golden.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.json, goldenJSON) {
		t.Fatal("figure served from the parent shard differs from a cacheless run")
	}
}
