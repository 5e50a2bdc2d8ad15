// Command scalebench measures the simulation core at city scale: for
// each node count it generates a city trace (workload.CityScale), fits
// its contact graph, replays every contact through the discrete-event
// scheduler, and records events/sec and peak bytes/node. The results
// back BENCH_scale.json (see DESIGN.md Sec. 11); events/sec is a trend
// number for one machine. The machine-independent throughput gate is
// internal/des's TestLadderVsHeapReplayThroughput.
//
// Usage:
//
//	scalebench -n 1000,10000,100000 -o BENCH_scale.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/des"
	"repro/internal/workload"
)

// Result is the per-node-count benchmark record.
type Result struct {
	Nodes         int     `json:"nodes"`
	HorizonSec    float64 `json:"horizon_sec"`
	Contacts      int     `json:"contacts"`
	BytesPerNode  float64 `json:"bytes_per_node"`
	LadderEvtsSec float64 `json:"ladder_events_per_sec"`
	GenSec        float64 `json:"generation_sec"`
}

// Report is the BENCH_scale.json document.
type Report struct {
	Seed    uint64   `json:"seed"`
	Reps    int      `json:"reps"`
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scalebench", flag.ContinueOnError)
	var (
		nList   = fs.String("n", "1000,10000,100000", "comma-separated node counts")
		outPath = fs.String("o", "", "write the JSON report to this file (default: stdout)")
		seed    = fs.Uint64("seed", 1, "random seed")
		reps    = fs.Int("reps", 3, "replay repetitions; best run is reported")
		workers = fs.Int("workers", 0, "trace generation workers (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns, err := parseNodeCounts(*nList)
	if err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("reps must be >= 1, got %d", *reps)
	}

	rep := Report{Seed: *seed, Reps: *reps}
	for _, n := range ns {
		res, err := benchOne(n, *seed, *reps, *workers)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Fprintf(os.Stderr,
			"scalebench: n=%d contacts=%d bytes/node=%.0f ladder=%.0f ev/s\n",
			res.Nodes, res.Contacts, res.BytesPerNode, res.LadderEvtsSec)
		rep.Results = append(rep.Results, res)
	}

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
	return nil
}

func parseNodeCounts(s string) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad node count %q", f)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("no node counts in %q", s)
	}
	return ns, nil
}

// benchHorizon shrinks the trace span as N grows so the contact volume
// (and the wall time) stays roughly constant across node counts: the
// default city geometry has constant average degree, so contacts scale
// with N x horizon.
func benchHorizon(n int) float64 {
	h := 86400 * 1e4 / float64(n)
	if h < 3600 {
		h = 3600
	}
	if h > 86400 {
		h = 86400
	}
	return h
}

func benchOne(n int, seed uint64, reps, workers int) (Result, error) {
	spec := workload.DefaultCitySpec(n)
	spec.Seed = seed
	spec.Horizon = benchHorizon(n)
	spec.Workers = workers

	genStart := time.Now()
	tr, err := workload.CityScale(spec)
	if err != nil {
		return Result{}, err
	}
	g, err := tr.EstimateRates()
	if err != nil {
		return Result{}, err
	}
	genSec := time.Since(genStart).Seconds()

	// Peak live bytes per node with the trace, the fitted graph, and the
	// event times resident — the footprint an experiment at this N pays.
	// The graph stores only the pairs that meet, so this stays in the
	// tens of KB per node where an n x n matrix at n=1e5 would need 80 GB.
	times := make([]float64, len(tr.Contacts))
	for i, c := range tr.Contacts {
		times[i] = c.Start
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(g)
	bytesPerNode := float64(ms.HeapAlloc) / float64(n)

	res := Result{
		Nodes:        n,
		HorizonSec:   spec.Horizon,
		Contacts:     len(tr.Contacts),
		BytesPerNode: bytesPerNode,
		GenSec:       genSec,
	}

	res.LadderEvtsSec, err = bestReplay(times, reps)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// bestReplay schedules every contact time into a fresh scheduler and
// drains it, reps times, returning the best observed events/sec.
func bestReplay(times []float64, reps int) (float64, error) {
	if len(times) == 0 {
		return 0, fmt.Errorf("empty trace")
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		s := des.New()
		dispatched := 0
		start := time.Now()
		for _, t := range times {
			s.At(t, func() { dispatched++ })
		}
		got := s.Run()
		el := time.Since(start).Seconds()
		if got != len(times) || dispatched != len(times) {
			return 0, fmt.Errorf("replay dispatched %d/%d events", dispatched, len(times))
		}
		if evps := float64(got) / el; evps > best {
			best = evps
		}
	}
	return best, nil
}
