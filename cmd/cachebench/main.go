// Command cachebench measures the content-addressed result cache
// (internal/resultcache + internal/dispatch) over registry specs: a
// cold run populates a fresh cache, a warm run regenerates every
// artifact from it, and an "edit" run mutates one spec's numerical
// axis to show invalidation staying confined to that spec. The
// results back BENCH_cache.json (see DESIGN.md Sec. 14).
//
// The -gate flag turns the run into a regression check with
// machine-independent criteria: the warm run must compute zero trials
// (cache.misses == 0 and experiment.trials == 0) while producing
// byte-identical artifacts, and the axis edit must leave every other
// spec at zero misses. Wall-clock numbers are reported for context
// but never gated.
//
// Usage:
//
//	cachebench -o BENCH_cache.json
//	cachebench -figs fig04,fig06 -gate
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// SpecResult is the per-spec benchmark record.
type SpecResult struct {
	Spec          string  `json:"spec"`
	ColdSec       float64 `json:"cold_sec"`
	WarmSec       float64 `json:"warm_sec"`
	ColdMisses    int64   `json:"cold_misses"`
	WarmHits      int64   `json:"warm_hits"`
	WarmMisses    int64   `json:"warm_misses"`
	WarmTrials    int64   `json:"warm_trials_executed"`
	WarmIdentical bool    `json:"warm_byte_identical"`
	WarmSpeedup   float64 `json:"warm_speedup_fraction"`
	// Edited is true for the spec whose axis the edit phase mutated;
	// EditMisses is that phase's recompute count (must be 0 for every
	// non-edited spec).
	Edited     bool  `json:"edited"`
	EditMisses int64 `json:"edit_misses"`
}

// Report is the BENCH_cache.json document.
type Report struct {
	Benchmark   string       `json:"benchmark"`
	Description string       `json:"description"`
	Command     string       `json:"command"`
	Seed        uint64       `json:"seed"`
	Runs        int          `json:"runs"`
	SecRuns     int          `json:"security_runs"`
	Results     []SpecResult `json:"results"`
	Note        string       `json:"note"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cachebench", flag.ContinueOnError)
	var (
		figs    = fs.String("figs", "fig04,fig06", "comma-separated registry spec IDs (synthetic specs only)")
		outPath = fs.String("o", "", "write the JSON report to this file (default: stdout)")
		seed    = fs.Uint64("seed", 1, "experiment seed")
		runs    = fs.Int("runs", 60, "delivery trials per point")
		secRuns = fs.Int("security-runs", 1000, "security trials per point")
		gate    = fs.Bool("gate", false, "fail unless the warm run computes zero trials and the edit stays confined")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := pickSpecs(*figs)
	if err != nil {
		return err
	}
	opt := experiment.DefaultOptions()
	opt.Seed = *seed
	opt.Runs = *runs
	opt.SecurityRuns = *secRuns
	opt.TraceRuns = 5

	cacheDir, err := os.MkdirTemp("", "cachebench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	rep := Report{
		Benchmark: "ResultCache",
		Description: fmt.Sprintf(
			"Registry specs %s evaluated cold (fresh content-addressed cache), warm (every trial served from cache), and after a one-spec axis edit (invalidation confined to the edited spec). %d delivery / %d security trials per point, seed %d.",
			*figs, opt.Runs, opt.SecurityRuns, opt.Seed),
		Command: "go run ./cmd/cachebench -figs " + *figs + " -gate",
		Seed:    opt.Seed, Runs: opt.Runs, SecRuns: opt.SecurityRuns,
	}

	// Cold, then warm, over the shared cache directory.
	coldJSON := map[string][]byte{}
	results := map[string]*SpecResult{}
	for _, s := range specs {
		m, err := evalSpec(s, opt, cacheDir, "bench-cold")
		if err != nil {
			return fmt.Errorf("%s cold: %w", s.ID, err)
		}
		if m.misses == 0 {
			return fmt.Errorf("%s cold: computed no trials — spec does not route through the trial cache", s.ID)
		}
		coldJSON[s.ID] = m.json
		results[s.ID] = &SpecResult{Spec: s.ID, ColdSec: m.sec, ColdMisses: m.misses}
	}
	for _, s := range specs {
		m, err := evalSpec(s, opt, cacheDir, "bench-warm")
		if err != nil {
			return fmt.Errorf("%s warm: %w", s.ID, err)
		}
		r := results[s.ID]
		r.WarmSec, r.WarmHits, r.WarmMisses, r.WarmTrials = m.sec, m.hits, m.misses, m.trials
		r.WarmIdentical = bytes.Equal(m.json, coldJSON[s.ID])
		if r.ColdSec > 0 {
			r.WarmSpeedup = 1 - r.WarmSec/r.ColdSec
		}
	}

	// Edit phase: mutate the first spec's last X value and regenerate
	// everything. Only the edited spec may miss.
	edited := specs[0]
	edited.X.Values = append([]float64(nil), edited.X.Values...)
	edited.X.Values[len(edited.X.Values)-1] *= 1.25
	for i, s := range specs {
		if i == 0 {
			s = edited
		}
		m, err := evalSpec(s, opt, cacheDir, "bench-edit")
		if err != nil {
			return fmt.Errorf("%s edit: %w", s.ID, err)
		}
		r := results[s.ID]
		r.Edited = i == 0
		r.EditMisses = m.misses
	}

	for _, s := range specs {
		r := results[s.ID]
		fmt.Fprintf(os.Stderr,
			"cachebench: %-8s cold=%.2fs (%d trials) warm=%.2fs (%d hits, %d misses) speedup=%.1f%% edit_misses=%d\n",
			r.Spec, r.ColdSec, r.ColdMisses, r.WarmSec, r.WarmHits, r.WarmMisses,
			100*r.WarmSpeedup, r.EditMisses)
		rep.Results = append(rep.Results, *r)
	}
	rep.Note = "Gate criteria are machine-independent: warm runs serve every trial from cache (0 misses, 0 runner trials, byte-identical artifacts) and a one-spec axis edit recomputes only that spec. Wall-clock speedup varies with hardware and trial cost; it is reported, not gated."

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath != "" {
		if err := atomicio.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
	} else if _, err := out.Write(data); err != nil {
		return err
	}

	if *gate {
		for _, r := range rep.Results {
			if r.WarmMisses != 0 || r.WarmTrials != 0 {
				return fmt.Errorf("gate: %s warm run computed %d trials (%d misses); want 0",
					r.Spec, r.WarmTrials, r.WarmMisses)
			}
			if !r.WarmIdentical {
				return fmt.Errorf("gate: %s warm artifact is not byte-identical to cold", r.Spec)
			}
			if r.WarmHits != r.ColdMisses {
				return fmt.Errorf("gate: %s warm hits %d != cold trial count %d",
					r.Spec, r.WarmHits, r.ColdMisses)
			}
			if r.Edited && r.EditMisses == 0 {
				return fmt.Errorf("gate: %s axis edit served stale cached results", r.Spec)
			}
			if !r.Edited && r.EditMisses != 0 {
				return fmt.Errorf("gate: %s recomputed %d trials after a foreign edit; want 0",
					r.Spec, r.EditMisses)
			}
		}
	}
	return nil
}

// pickSpecs resolves comma-separated registry IDs, refusing trace-based
// specs (they need trace files; the cache story is identical anyway).
func pickSpecs(list string) ([]scenario.Scenario, error) {
	byID := map[string]scenario.Scenario{}
	for _, s := range experiment.FigureSpecs() {
		byID[s.ID] = s
	}
	for _, s := range experiment.AblationSpecs() {
		byID[s.ID] = s
	}
	var specs []scenario.Scenario
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		s, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown spec %q", id)
		}
		if s.Measure.Kind == scenario.KindTraceReplay {
			return nil, fmt.Errorf("spec %q is trace-based; use a synthetic spec", id)
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no specs in %q", list)
	}
	return specs, nil
}

// measurement is one spec evaluation's wall time, cache traffic, and
// artifact bytes.
type measurement struct {
	sec    float64
	hits   int64
	misses int64
	trials int64
	json   []byte
}

// evalSpec runs one spec through the dispatch layer against the shared
// cache directory under a private obs collector.
func evalSpec(spec scenario.Scenario, opt experiment.Options, cacheDir, owner string) (measurement, error) {
	if obs.Active() != nil {
		return measurement{}, fmt.Errorf("an obs collector is already installed")
	}
	c := obs.NewCollector()
	obs.Install(c)
	defer obs.Install(nil)

	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		return measurement{}, err
	}
	store, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed, owner)
	if err != nil {
		return measurement{}, err
	}
	defer store.Close()
	eng := scenario.NewEngine(opt)
	eng.Supervise(nil, dispatch.New(store, dispatch.Options{Owner: owner}))
	start := time.Now()
	fig, err := eng.Run(&spec)
	if err != nil {
		return measurement{}, err
	}
	sec := time.Since(start).Seconds()
	js, err := fig.JSON()
	if err != nil {
		return measurement{}, err
	}
	return measurement{
		sec:    sec,
		hits:   c.Get(obs.CacheHits),
		misses: c.Get(obs.CacheMisses),
		trials: c.Get(obs.ExpTrials),
		json:   js,
	}, nil
}
