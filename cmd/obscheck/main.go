// Command obscheck validates a run manifest emitted by -manifest
// against the obs schema: version match, counter-set completeness in
// declaration order, non-negative totals, well-formed phases. CI runs
// it on every instrumented-figure artifact; it is equally handy for
// checking manifests before archiving them next to EXPERIMENTS.md
// numbers.
//
// It also inspects content-addressed result caches (the -cache
// directories of figures/sweep/dtnsim): listing every entry, and
// pruning entries no longer referenced by the current experiment
// registry.
//
// Usage:
//
//	obscheck run-manifest.json [more.json ...]
//	obscheck -cache results/.cache            # list entries
//	obscheck -cache results/.cache -gc        # prune unregistered entries
//
// Exits non-zero on the first invalid manifest. With -counters, the
// validated counter totals are printed (declaration order) for quick
// inspection.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obscheck", flag.ContinueOnError)
	counters := fs.Bool("counters", false, "print the validated counter totals")
	cacheDir := fs.String("cache", "", "list the entries of a content-addressed result cache directory")
	gc := fs.Bool("gc", false, "with -cache: prune entries whose spec is not in the current experiment registry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gc && *cacheDir == "" {
		return fmt.Errorf("-gc requires -cache DIR")
	}
	if *cacheDir != "" {
		return runCache(out, *cacheDir, *gc)
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: obscheck [-counters] <manifest.json> ... | obscheck -cache DIR [-gc]")
	}
	for _, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m, err := obs.ValidateManifestBytes(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := checkChaosFamilies(m); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "%s: valid (version %d, command %q, revision %s, %d phases, %.2fs wall)\n",
			path, m.Version, m.Command, m.GitRevision, len(m.Phases), m.WallSeconds)
		if *counters {
			for _, c := range m.Counters {
				fmt.Fprintf(out, "  %-36s %d\n", c.Name, c.Value)
			}
		}
	}
	return nil
}

// chaosFamilies are the counters whose totals are coupled to the
// -chaos flag of the run that wrote the manifest.
var chaosFamilies = []string{"chaos.injected", "chaos.blackouts", "retry.attempts", "breaker.opens"}

// checkChaosFamilies cross-checks the turbulence and self-healing
// counter families against the recorded invocation. A run invoked with
// -chaos that never injected a fault, executed a blackout, retried, or
// tripped a breaker did not actually exercise the chaos layer; a
// chaos-free run with nonzero totals in any of these families has
// turbulence leaking into a clean experiment. Either way the manifest
// is lying about the run and fails validation.
func checkChaosFamilies(m *obs.Manifest) error {
	chaotic := false
	for _, a := range m.Args {
		switch strings.TrimLeft(a, "-") {
		case "chaos", "chaos=true":
			chaotic = true
		}
	}
	for _, name := range chaosFamilies {
		v, ok := m.Counter(name)
		if !ok {
			// Counter-set completeness is ValidateManifestBytes's job;
			// older manifests without the family are out of scope here.
			continue
		}
		if chaotic && v == 0 {
			return fmt.Errorf("chaos run recorded %s = 0, want nonzero", name)
		}
		if !chaotic && v != 0 {
			return fmt.Errorf("chaos-free run recorded %s = %d, want 0", name, v)
		}
	}
	return nil
}

// runCache lists a result cache and optionally prunes entries whose
// spec ID is not referenced by the current registry.
func runCache(out *os.File, dir string, gc bool) error {
	st, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("-cache: %w", err)
	}
	if !st.IsDir() {
		return fmt.Errorf("-cache: %s is not a directory", dir)
	}
	infos, err := resultcache.List(dir)
	if err != nil {
		return err
	}
	now := time.Now()
	for _, info := range infos {
		fmt.Fprintf(out, "%-24s %.12s  seed %-6d %5d trials  age %s\n",
			info.SpecID, info.Key, info.Seed, info.Trials, age(now, info.Created))
	}
	fmt.Fprintf(out, "%d entries\n", len(infos))
	if !gc {
		return nil
	}
	pruned, err := resultcache.GC(dir, registryKeeps())
	if err != nil {
		return err
	}
	for _, info := range pruned {
		fmt.Fprintf(out, "pruned %-24s %.12s (%d trials)\n", info.SpecID, info.Key, info.Trials)
	}
	fmt.Fprintf(out, "%d entries pruned\n", len(pruned))
	return nil
}

// registryKeeps returns the GC keep-predicate: every spec in the
// current figure + ablation registry survives, as do the ad-hoc CLI
// families (sweep-* from cmd/sweep, dtnsim-* from cmd/dtnsim), whose
// parameters are bound into the content key rather than the registry.
func registryKeeps() func(specID string) bool {
	known := make(map[string]bool)
	for _, s := range experiment.FigureSpecs() {
		known[s.ID] = true
	}
	for _, s := range experiment.AblationSpecs() {
		known[s.ID] = true
	}
	return func(specID string) bool {
		return known[specID] ||
			strings.HasPrefix(specID, "sweep-") ||
			strings.HasPrefix(specID, "dtnsim-")
	}
}

// age renders a coarse human age (cache entries live for days, not
// milliseconds).
func age(now, created time.Time) string {
	d := now.Sub(created)
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 24*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}
