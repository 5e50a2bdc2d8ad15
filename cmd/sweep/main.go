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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

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
	)
	bf := dispatch.AddFlags(fs)
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
	if err := bf.Validate(); err != nil {
		return err
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
	sess := bf.Start("sweep", obsRun)
	defer sess.Stop()
	eng := scenario.NewEngine(opt)
	var store *resultcache.Store
	if bf.Cache != "" {
		key, err := scenario.ContentKey(&spec, opt)
		if err != nil {
			return err
		}
		if store, err = sess.Open(key, spec.ID, opt.Seed); err != nil {
			return err
		}
		defer store.Close()
	}
	eng.Supervise(sess.Sup, store)
	fig, err := eng.Run(&spec)
	if err := sess.Finish(err); err != nil {
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
	}
	mc := manifestConfig{
		Param: *param, Values: values, Nodes: *n, GroupSize: *g, Relays: *k,
		Copies: *l, Spray: *spray, Deadline: *deadline, Compromised: *compromised,
		Runs: *runs, Cache: bf.Cache,
	}
	return obsRun.Finish(mc, *seed, *workers, *faults)
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
