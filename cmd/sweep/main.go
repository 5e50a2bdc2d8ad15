// Command sweep varies one parameter of the onion-routing scenario
// and tabulates delivery, cost, and security metrics (simulation and
// analysis side by side) — the quickest way to explore a tradeoff
// without writing a figure definition.
//
// Usage:
//
//	sweep -param g -values 1,2,5,10
//	sweep -param K -values 1,3,5,10 -deadline 900
//	sweep -param L -values 1,2,3,4,5 -spray
//	sweep -param c -values 0.05,0.1,0.2,0.4
//	sweep -param T -values 60,300,600,1800
//	sweep -param f -values 0,0.1,0.2,0.4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/dispatch"
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
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// sweepParams maps each CLI parameter letter to the scenario axis
// param it sweeps.
var sweepParams = map[string]string{
	"g": "GroupSize",
	"K": "Relays",
	"L": "Copies",
	"c": scenario.ParamFrac,
	"T": scenario.ParamDeadline,
	"f": scenario.ParamFault,
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		param       = fs.String("param", "g", "parameter to sweep: g | K | L | c | T | f (contact-failure rate)")
		valuesRaw   = fs.String("values", "1,5,10", "comma-separated values for the swept parameter")
		n           = fs.Int("n", 100, "number of nodes")
		g           = fs.Int("g", 5, "onion group size (when not swept)")
		k           = fs.Int("k", 3, "number of onion groups (when not swept)")
		l           = fs.Int("l", 1, "number of copies (when not swept)")
		spray       = fs.Bool("spray", true, "source spray-and-wait augmentation")
		deadline    = fs.Float64("deadline", 600, "message deadline T, minutes (when not swept)")
		compromised = fs.Float64("compromised", 0.1, "compromised fraction c/n (when not swept)")
		faults      = fs.Float64("faults", 0, "per-contact failure rate in [0,1) (when not swept)")
		runs        = fs.Int("runs", 400, "routed messages per point")
		seed        = fs.Uint64("seed", 1, "root random seed")
		workers     = fs.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS); output is identical for any value")
		trialTO     = fs.Duration("trial-timeout", 0, "per-trial watchdog: a trial exceeding this is retried once, then quarantined (0 = no watchdog)")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory; completed trials persist across interruptions and commits (rerun to resume), and concurrent processes form a work-stealing fleet")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "fleet lease staleness bound: a chunk whose holder has not heartbeat within this is stolen")
		fleetID     = fs.String("fleet-id", defaultFleetID(), "worker name for cache shards and leases (default hostname-pid)")
	)
	rf := obs.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	values, err := parseValues(*valuesRaw)
	if err != nil {
		return err
	}
	if err := validateParamValues(*param, values); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}
	axisParam, ok := sweepParams[*param]
	if !ok {
		return fmt.Errorf("unknown parameter %q (want g, K, L, c, T, or f)", *param)
	}
	// Persistence flags fail at validation time, before any computation.
	if *cacheDir != "" {
		if err := atomicio.EnsureDir(*cacheDir); err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", *leaseTTL)
	}
	obsRun, err := rf.Begin("sweep", args)
	if err != nil {
		return err
	}
	defer obsRun.Abort()

	spec := scenario.Scenario{
		ID: "sweep-" + *param,
		Base: core.Config{
			Nodes: *n, GroupSize: *g, Relays: *k, Copies: *l, Spray: *spray,
			MinICT: 1, MaxICT: 360, Seed: *seed, ContactFailure: *faults,
		},
		X: scenario.Axis{Name: *param, Param: axisParam, Values: values},
		Measure: scenario.Measure{
			Kind:     scenario.KindTable,
			Deadline: *deadline,
			Frac:     *compromised,
		},
	}
	opt := scenario.Options{
		Seed: *seed, Runs: *runs, SecurityRuns: 1, TraceRuns: 1,
		Workers: *workers,
	}

	// Supervision: SIGINT/SIGTERM drain in-flight trials (saving them
	// under -cache) instead of losing the run.
	sup := runner.NewSupervisor(*trialTO)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sigDone := make(chan struct{})
	go func() {
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "sweep: received %v, draining%s\n", s, drainNote(*cacheDir))
			obsRun.RecordEvent(obs.RunEvent{Kind: obs.EventInterrupted, Detail: s.String()})
			sup.Stop()
		case <-sigDone:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigDone)
	}()
	eng := scenario.NewEngine(opt)
	var d *dispatch.Dispatcher
	if *cacheDir != "" {
		key, err := scenario.ContentKey(&spec, opt)
		if err != nil {
			return err
		}
		store, err := resultcache.Open(*cacheDir, key, spec.ID, opt.Seed, *fleetID)
		if err != nil {
			return err
		}
		defer store.Close()
		if n := store.Loaded(); n > 0 {
			fmt.Fprintf(os.Stderr, "sweep: cache entry %.12s holds %d completed trials\n", key, n)
			obsRun.RecordEvent(obs.RunEvent{
				Kind:   obs.EventResumed,
				Detail: fmt.Sprintf("%d trials from cache entry %.12s", n, key),
			})
		}
		d = dispatch.New(store, dispatch.Options{Owner: *fleetID, LeaseTTL: *leaseTTL})
	}
	eng.Supervise(sup, d)
	fig, err := eng.Run(&spec)
	for _, te := range sup.Quarantined() {
		obsRun.RecordEvent(obs.RunEvent{
			Kind: obs.EventTrialQuarantined, Detail: te.Error(), Batch: te.Batch, Trial: te.Trial,
		})
	}
	if err != nil {
		if errors.Is(err, runner.ErrInterrupted) && *cacheDir != "" {
			return fmt.Errorf("%w; rerun with the same -cache to continue", err)
		}
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tdelivery sim\tdelivery model\ttransmissions\ttraceable sim\ttraceable model\tanonymity sim\tanonymity model\n", *param)
	for i, v := range values {
		fmt.Fprintf(tw, "%v\t%.3f\t%.3f\t%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			v, fig.Series[0].Y[i], fig.Series[1].Y[i], fig.Series[2].Y[i],
			fig.Series[3].Y[i], fig.Series[4].Y[i], fig.Series[5].Y[i], fig.Series[6].Y[i])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	type manifestConfig struct {
		Param       string    `json:"param"`
		Values      []float64 `json:"values"`
		Nodes       int       `json:"nodes"`
		GroupSize   int       `json:"groupSize"`
		Relays      int       `json:"relays"`
		Copies      int       `json:"copies"`
		Spray       bool      `json:"spray"`
		Deadline    float64   `json:"deadline"`
		Compromised float64   `json:"compromised"`
		Runs        int       `json:"runs"`
		Cache       string    `json:"cache,omitempty"`
		FleetID     string    `json:"fleetId,omitempty"`
	}
	mc := manifestConfig{
		Param: *param, Values: values, Nodes: *n, GroupSize: *g, Relays: *k,
		Copies: *l, Spray: *spray, Deadline: *deadline, Compromised: *compromised,
		Runs: *runs, Cache: *cacheDir,
	}
	if *cacheDir != "" {
		mc.FleetID = *fleetID
	}
	return obsRun.Finish(mc, *seed, *workers, *faults)
}

// drainNote tells an interrupted user whether completed trials survive:
// only a -cache run persists them.
func drainNote(cacheDir string) string {
	if cacheDir == "" {
		return ""
	}
	return " (completed trials are cached)"
}

// validateParamValues rejects sweep values that the integer-valued
// parameters (g, K, L) would otherwise silently truncate: before this
// check, `-param g -values 2.5` ran g=2 without any diagnostic.
func validateParamValues(param string, values []float64) error {
	switch param {
	case "g", "K", "L":
		for _, v := range values {
			if v != math.Trunc(v) {
				return fmt.Errorf("parameter %q takes integer values, got %v", param, v)
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				return fmt.Errorf("parameter %q value %v out of integer range", param, v)
			}
		}
	}
	return nil
}

func parseValues(raw string) ([]float64, error) {
	parts := strings.Split(raw, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values to sweep")
	}
	return out, nil
}
