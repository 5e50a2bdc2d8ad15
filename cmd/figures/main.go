// Command figures regenerates the paper's evaluation figures
// (Figs. 4-19). For each figure it can print an ASCII plot and write a
// tidy CSV next to it.
//
// With -cache, every completed trial persists in a content-addressed
// result cache keyed by the spec's numerical inputs (never the git
// revision or presentation fields). Runs are crash-safe: an
// interrupted or killed run resumes by rerunning with the same -cache,
// and its artifacts are byte-identical to an uninterrupted run.
// Completed work survives commits and is shared: any number of
// processes pointed at the same cache directory split the trial range
// via work-stealing leases and every one emits artifacts
// byte-identical to a single-process run.
//
// Usage:
//
//	figures -fig all -out results/
//	figures -fig fig11 -runs 1000
//	figures -fig fig04 -manifest out.json -cpuprofile cpu.prof
//	figures -fig fig04 -cache .cache         # Ctrl-C safe; rerun to resume
//	figures -fig fig04 -cache .cache -fleet-id worker-b  # fleet member
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// defaultFleetID names this process's cache shard and leases:
// hostname-pid, unique per live process on a shared directory.
func defaultFleetID() string {
	host, err := os.Hostname()
	if err != nil {
		host = "host"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		figID        = fs.String("fig", "all", "figure to generate: fig04..fig19, a number like 11, an ablation-* id, 'all', 'ablations', or 'everything'")
		outDir       = fs.String("out", "", "directory for CSV output (omit to skip CSV)")
		runs         = fs.Int("runs", 0, "routed messages per delivery/cost point (0 = default)")
		securityRuns = fs.Int("security-runs", 0, "sampled paths per security point (0 = default)")
		traceRuns    = fs.Int("trace-runs", 0, "routed messages per trace figure (0 = default)")
		seed         = fs.Uint64("seed", 1, "root random seed")
		workers      = fs.Int("workers", 0, "concurrent trial workers per figure (0 = GOMAXPROCS); output is identical for any value")
		faults       = fs.Float64("faults", 0, "fault-injection rate in [0,1) applied to every figure (0 = pristine; ablation-faults sweeps internally)")
		specPath     = fs.String("scenario", "", "JSON scenario spec file (one object or an array); overrides -fig")
		noPlot       = fs.Bool("no-plot", false, "suppress ASCII plots")
		jsonOut      = fs.Bool("json", false, "also write .json files when -out is set")
		parallel     = fs.Int("parallel", 1, "figures generated concurrently")
		width        = fs.Int("width", 72, "plot width")
		height       = fs.Int("height", 18, "plot height")
		trialTimeout = fs.Duration("trial-timeout", 0, "per-trial watchdog: a trial exceeding this is retried once, then quarantined (0 = no watchdog)")
		cacheDir     = fs.String("cache", "", "content-addressed result cache directory; completed trials persist across interruptions and commits (rerun to resume), and concurrent processes on the same directory form a work-stealing fleet")
		leaseTTL     = fs.Duration("lease-ttl", 30*time.Second, "fleet lease staleness bound: a chunk whose holder has not heartbeat within this is stolen")
		fleetID      = fs.String("fleet-id", defaultFleetID(), "worker name for cache shards and leases (default hostname-pid)")
	)
	rf := obs.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Create the output directory before Begin so profile/manifest
	// paths under -out resolve.
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}
	// Persistence flags are validated before any computation: a -cache
	// path occupied by a regular file fails here.
	if *cacheDir != "" {
		if err := atomicio.EnsureDir(*cacheDir); err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", *leaseTTL)
	}
	obsRun, err := rf.Begin("figures", args)
	if err != nil {
		return err
	}
	defer obsRun.Abort()

	opt := experiment.DefaultOptions()
	opt.Seed = *seed
	if *runs > 0 {
		opt.Runs = *runs
	}
	if *securityRuns > 0 {
		opt.SecurityRuns = *securityRuns
	}
	if *traceRuns > 0 {
		opt.TraceRuns = *traceRuns
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	opt.Workers = *workers
	if *faults < 0 || *faults >= 1 {
		return fmt.Errorf("-faults must be in [0,1), got %v", *faults)
	}
	opt.FaultRate = *faults
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}

	var specs []scenario.Scenario
	var sharedEng *scenario.Engine
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return fmt.Errorf("read scenario spec: %w", err)
		}
		specs, err = scenario.ParseSpecs(data)
		if err != nil {
			return err
		}
		if *cacheDir == "" {
			// One engine shared across the file's specs so repeated
			// analytical-model evaluations hit the memo cache. With a
			// result cache each spec needs its own cache entry, hence
			// its own engine.
			sharedEng = scenario.NewEngine(opt)
		}
	} else {
		figSpecs, ablSpecs := experiment.FigureSpecs(), experiment.AblationSpecs()
		byID := make(map[string]scenario.Scenario, len(figSpecs)+len(ablSpecs))
		var ids, ablIDs []string
		for _, s := range figSpecs {
			byID[s.ID] = s
			ids = append(ids, s.ID)
		}
		for _, s := range ablSpecs {
			byID[s.ID] = s
			ablIDs = append(ablIDs, s.ID)
		}
		var selected []string
		switch *figID {
		case "all":
			selected = ids
		case "ablations":
			selected = ablIDs
		case "everything":
			selected = append(append([]string(nil), ids...), ablIDs...)
		default:
			id := *figID
			if len(id) <= 2 { // allow "-fig 4" and "-fig 11"
				id = fmt.Sprintf("fig%02s", id)
			}
			if _, ok := byID[id]; !ok {
				return fmt.Errorf("unknown figure %q (known: %v + %v)", *figID, ids, ablIDs)
			}
			selected = []string{id}
		}
		for _, id := range selected {
			specs = append(specs, byID[id])
		}
	}

	// One supervisor for the whole invocation: SIGINT/SIGTERM request a
	// drain (in-flight trials finish and, under -cache, are saved; the
	// run exits nonzero), and a panicking or hung trial is quarantined
	// instead of killing the process.
	sup := runner.NewSupervisor(*trialTimeout)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sigDone := make(chan struct{})
	go func() {
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "figures: received %v, draining%s\n", s, drainNote(*cacheDir))
			obsRun.RecordEvent(obs.RunEvent{Kind: obs.EventInterrupted, Detail: s.String()})
			sup.Stop()
		case <-sigDone:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigDone)
	}()
	if sharedEng != nil {
		sharedEng.Supervise(sup, nil)
	}

	generate := func(spec *scenario.Scenario) (*experiment.Figure, error) {
		if sharedEng != nil {
			return sharedEng.Run(spec)
		}
		eng := scenario.NewEngine(opt)
		var d *dispatch.Dispatcher
		if *cacheDir != "" {
			key, err := scenario.ContentKey(spec, opt)
			if err != nil {
				return nil, err
			}
			store, err := resultcache.Open(*cacheDir, key, spec.ID, opt.Seed, *fleetID)
			if err != nil {
				return nil, err
			}
			defer store.Close()
			if n := store.Loaded(); n > 0 {
				fmt.Fprintf(os.Stderr, "figures: %s: cache entry %.12s holds %d completed trials\n", spec.ID, key, n)
				obsRun.RecordEvent(obs.RunEvent{
					Kind:   obs.EventResumed,
					Detail: fmt.Sprintf("%s: %d trials from cache entry %.12s", spec.ID, n, key),
				})
			}
			d = dispatch.New(store, dispatch.Options{Owner: *fleetID, LeaseTTL: *leaseTTL})
		}
		eng.Supervise(sup, d)
		return eng.Run(spec)
	}

	figures := make([]*experiment.Figure, len(specs))
	elapsed := make([]time.Duration, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, *parallel)
	var wg sync.WaitGroup
	for idx := range specs {
		idx := idx
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if sup.Stopping() {
				errs[idx] = fmt.Errorf("%s: %w", specs[idx].ID, runner.ErrInterrupted)
				return
			}
			endPhase := obs.Current().StartPhase(specs[idx].ID)
			start := time.Now()
			fig, err := generate(&specs[idx])
			if err == nil {
				err = fig.Validate()
			}
			endPhase()
			figures[idx], elapsed[idx], errs[idx] = fig, time.Since(start), err
		}()
	}
	wg.Wait()

	// Quarantined trials are manifest events; the run still exits
	// nonzero identifying them.
	for _, te := range sup.Quarantined() {
		obsRun.RecordEvent(obs.RunEvent{
			Kind:   obs.EventTrialQuarantined,
			Detail: firstLine(te.Error()),
			Batch:  te.Batch,
			Trial:  te.Trial,
		})
	}

	// Write every successful figure (atomically — a kill mid-write can
	// never leave a partial CSV), then report the first failure.
	var firstErr error
	for idx := range specs {
		id := specs[idx].ID
		if errs[idx] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", id, errs[idx])
			}
			continue
		}
		fig := figures[idx]
		if !*noPlot {
			fmt.Fprint(out, fig.Render(*width, *height))
			fmt.Fprintf(out, "          generated in %v\n\n", elapsed[idx].Round(time.Millisecond))
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".csv")
			if err := atomicio.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
			fmt.Fprintf(out, "wrote %s\n", path)
			if *jsonOut {
				data, err := fig.JSON()
				if err != nil {
					return err
				}
				jpath := filepath.Join(*outDir, id+".json")
				if err := atomicio.WriteFile(jpath, data, 0o644); err != nil {
					return fmt.Errorf("write %s: %w", jpath, err)
				}
				fmt.Fprintf(out, "wrote %s\n", jpath)
			}
		}
	}
	type manifestConfig struct {
		Figures      []string `json:"figures"`
		Runs         int      `json:"runs"`
		SecurityRuns int      `json:"securityRuns"`
		TraceRuns    int      `json:"traceRuns"`
		Parallel     int      `json:"parallel"`
		Cache        string   `json:"cache,omitempty"`
		FleetID      string   `json:"fleetId,omitempty"`
	}
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = specs[i].ID
	}
	// The manifest is written even on interrupted or quarantined runs —
	// it is the audit record of what happened.
	finishErr := obsRun.Finish(manifestConfig{
		Figures: ids, Runs: opt.Runs, SecurityRuns: opt.SecurityRuns,
		TraceRuns: opt.TraceRuns, Parallel: *parallel,
		Cache: *cacheDir, FleetID: fleetIDForManifest(*cacheDir, *fleetID),
	}, opt.Seed, opt.Workers, opt.FaultRate)
	if firstErr != nil {
		if errors.Is(firstErr, runner.ErrInterrupted) && *cacheDir != "" {
			return fmt.Errorf("%w; rerun with the same -cache to continue", firstErr)
		}
		return firstErr
	}
	return finishErr
}

// drainNote tells an interrupted user whether completed trials survive:
// only a -cache run persists them.
func drainNote(cacheDir string) string {
	if cacheDir == "" {
		return ""
	}
	return " (completed trials are cached)"
}

// fleetIDForManifest records the worker name only when a cache is in
// use, keeping cacheless manifests byte-stable across hosts and PIDs.
func fleetIDForManifest(cacheDir, fleetID string) string {
	if cacheDir == "" {
		return ""
	}
	return fleetID
}

// firstLine truncates multi-line error text (panic stacks) for the
// manifest's one-line detail field.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
