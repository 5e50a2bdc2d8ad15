// Command dtnbench is the repository's outside-in benchmark. It drives
// the onion pipeline, the message-level sim runtime, a loopback cluster
// and the figure pipeline through their exported APIs, checks every
// output, and prints end-to-end metrics (untraced) or a per-layer
// ledger built from spans around each call it makes (traced).
//
// Build and run it from the repository root with
//
//	bash bench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
//
// A run sets up and measures rounds of its workload until --seconds of
// measured wall have passed; every round repeats the same seeded inputs
// and must reproduce the same exact counts. With --trace 1 untraced and
// traced rounds alternate. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed output
// check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload's set-up receives: its inputs all derive
// from seed, and scale multiplies its size (1 is benchmark size, the
// size the golden file pins).
type config struct {
	seed  uint64
	scale float64
}

// round is one set-up system, ready to run one measured round.
type round interface {
	run(tr *tracer) (*result, error)
	close()
}

type benchWorkload struct {
	name string
	op   string // what ops_per_s counts
	call string // the sampled call behind call_p50_us and call_p99_us
	// setup builds everything one round needs from the seed; it is
	// timed as setup_s.
	setup func(cfg config) (round, error)
	// probe runs once in a traced run, after the rounds, for per-layer
	// metrics that need their own inputs; nil when there are none.
	probe func(cfg config, w io.Writer) (map[string]float64, []string, error)
	// procs is the run's GOMAXPROCS; 0 keeps one per CPU.
	procs int
}

var workloads = []benchWorkload{
	{"onion-pipeline", "trips", "trip", setupPipeline, probePipeline, 0},
	{"sim-steady", "injected msgs", "Network.Meet", setupSimSteady, nil, 0},
	{"sim-backlog", "injected msgs", "Network.Meet", setupSimBacklog, nil, 0},
	// The replay runs one contact at a time, so the two daemons of a
	// contact take turns rather than run in parallel. With a second P
	// every turn wakes the other CPU, and on a VM that wake-up latency
	// swings by half from minute to minute; on one P the same replay's
	// run-to-run spread of call_p50_us fell from 0.22 to 0.07.
	{"cluster-replay", "injected msgs", "Daemon.Contact", setupCluster, nil, 1},
	{"figures", "figures", "figure-set (16 experiment.Generate)", setupFigures, nil, 0},
}

// result is what one measured round reports.
type result struct {
	wall   time.Duration
	traced bool
	ops    int
	lat    []time.Duration // durations of the sampled call, dropped once summarised
	calls  int             // how many sampled calls the round made
	p50    time.Duration   // and their median
	p99    time.Duration
	counts map[string]int64   // exact counts, pinned by the golden file and equal in every round
	hashes map[string]string  // output digests, pinned likewise
	failed int                // operations that failed or returned wrong output
	errs   []string           // the first few failures, for the report
	extra  map[string]float64 // printed for reference, not gated
	layer  map[string]float64 // per-layer metrics; traced rounds only
	ledger ledger             // traced rounds only
}

func newResult() *result {
	return &result{counts: map[string]int64{}, hashes: map[string]string{}, extra: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s"},
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"setup_s", "s"},
}

// setup_s is the median over setupSamples batches of the mean set-up
// time within each batch. A batch repeats the set-up until the set-ups
// alone have taken setupShare of --seconds over setupSamples (about
// 140 ms of a 20-second run), so a set-up of a millisecond is averaged
// over a hundred repetitions and a single slow one (a GC cycle, a
// descheduled thread) barely moves its batch.
const (
	setupSamples = 7
	setupShare   = 0.05
)

// maxHarnessFrac fails a traced run whose own bookkeeping exceeds this
// share of the wall.
const maxHarnessFrac = 0.05

type options struct {
	workload, spans, golden, recordGolden string
	seed                                  uint64
	seconds, scale                        float64
	trace                                 int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: onion-pipeline, sim-steady, sim-backlog, cluster-replay or figures")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall to fill with rounds (at least one round runs)")
	fs.IntVar(&o.trace, "trace", 0, "1 alternates untraced and traced rounds and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the raw spans as JSON lines to this file")
	fs.Float64Var(&o.scale, "scale", 1, "workload size relative to benchmark size (goldens apply at 1)")
	fs.StringVar(&o.golden, "golden", "", "golden file to check against (default: the embedded testdata/golden.json)")
	fs.StringVar(&o.recordGolden, "record-golden", "", "write this run's counts into this golden file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.trace < 0 || o.trace > 1 || o.scale <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dtnbench: need -workload in %v, -trace 0|1 and -scale > 0\n", workloadNames())
		return 2
	}
	rep, err := bench(*w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "dtnbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep.out)
	if err != nil {
		fmt.Fprintf(stderr, "dtnbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's outcome; tests read the fields beyond out.
type report struct {
	out      output
	problems []string
	rounds   []*result
}

func bench(w benchWorkload, o options, stdout io.Writer) (*report, error) {
	cfg := config{seed: o.seed, scale: o.scale}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	tr := newTracer(0)
	if o.trace == 1 && o.spans != "" {
		tr = newTracer(spanCap)
	}
	rep := &report{}
	var measured time.Duration
	for i := 0; ; i++ {
		traced := o.trace == 1 && i%2 == 1
		res, err := oneRound(w, cfg, tr, traced)
		if err != nil {
			return nil, err
		}
		rep.rounds = append(rep.rounds, res)
		measured += res.wall
		if measured.Seconds() >= o.seconds && (o.trace == 0 || i >= 1) {
			break
		}
	}
	setups, perBatch, err := timeSetups(w, cfg, time.Duration(o.seconds*setupShare/setupSamples*float64(time.Second)))
	if err != nil {
		return nil, err
	}

	first := rep.rounds[0]
	for i, r := range rep.rounds {
		rep.out.Attempted += r.ops
		rep.out.Failed += r.failed
		rep.problems = append(rep.problems, r.errs...)
		if i > 0 && (!reflect.DeepEqual(r.counts, first.counts) || !reflect.DeepEqual(r.hashes, first.hashes)) {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d (traced=%v) counts differ from round 0: %v %v vs %v %v",
				i, r.traced, r.counts, r.hashes, first.counts, first.hashes))
		}
	}
	if o.recordGolden != "" {
		if err := recordGolden(o.recordGolden, w.name, cfg, first); err != nil {
			return nil, err
		}
	} else {
		g, err := loadGolden(o.golden)
		if err != nil {
			return nil, err
		}
		rep.problems = append(rep.problems, g.check(w.name, cfg, first)...)
	}

	var untraced, traced []*result
	for _, r := range rep.rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	e2e := endToEndMetrics(untraced, setups)
	printHeader(stdout, w, o, rep, first)
	printEndToEnd(stdout, w, untraced, setups, perBatch, e2e)
	metrics := e2e
	if o.trace == 1 {
		layer, problems, err := layerMetrics(w, cfg, untraced, traced, stdout)
		if err != nil {
			return nil, err
		}
		rep.problems = append(rep.problems, problems...)
		printLedger(stdout, traced, layer)
		metrics = layer
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	rep.out.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rep.out.Metrics[d.name] = metric{metrics[d.name], d.unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	rep.out.Correct = rep.out.Failed == 0 && len(rep.problems) == 0
	return rep, nil
}

// oneRound sets up a fresh system, runs one round on it and tears it
// down.
func oneRound(w benchWorkload, cfg config, tr *tracer, traced bool) (*result, error) {
	r, err := w.setup(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	tr.on = traced
	tr.reset()
	res, err := r.run(tr)
	tr.on = false
	if err != nil {
		return nil, err
	}
	res.traced = traced
	if traced {
		res.ledger = tr.ledger()
	}
	// Keeping every round's samples would grow the live heap round by
	// round, and with it the GC pacing of the rounds that follow.
	sortDurations(res.lat)
	res.calls, res.p50, res.p99 = len(res.lat), quantile(res.lat, 0.50), quantile(res.lat, 0.99)
	res.lat = nil
	return res, nil
}

// timeSetups returns the mean set-up time of each of setupSamples
// batches of at least batch, in seconds, and the number of set-ups in
// the first batch. Each batch starts from a collected heap, so garbage
// the rounds left behind is not collected on a set-up's clock;
// tear-down is not timed.
func timeSetups(w benchWorkload, cfg config, batch time.Duration) ([]float64, int, error) {
	samples := make([]float64, setupSamples)
	first := 0
	for i := range samples {
		runtime.GC()
		var spent time.Duration
		n := 0
		for n == 0 || spent < batch {
			t0 := time.Now()
			r, err := w.setup(cfg)
			spent += time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			r.close()
			n++
		}
		if i == 0 {
			first = n
		}
		samples[i] = spent.Seconds() / float64(n)
	}
	return samples, first, nil
}

func endToEndMetrics(untraced []*result, setups []float64) map[string]float64 {
	var rate, p50, p99 []float64
	for _, r := range untraced {
		rate = append(rate, float64(r.ops)/r.wall.Seconds())
		p50 = append(p50, us(r.p50))
		p99 = append(p99, us(r.p99))
	}
	return map[string]float64{
		"ops_per_s":   median(rate),
		"call_p50_us": median(p50),
		"call_p99_us": median(p99),
		"setup_s":     median(setups),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// medianOf is the median of key over the rounds' maps.
func medianOf(rounds []*result, pick func(*result) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range pick(r) {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func printHeader(w io.Writer, wl benchWorkload, o options, rep *report, first *result) {
	traced := 0
	for _, r := range rep.rounds {
		if r.traced {
			traced++
		}
	}
	fmt.Fprintf(w, "dtnbench %s seed=%d scale=%g trace=%d rounds=%d (%d traced) gomaxprocs=%d\n",
		wl.name, o.seed, o.scale, o.trace, len(rep.rounds), traced, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "per-round counts:%s\n", formatMap(first.counts))
	if len(first.hashes) > 0 {
		fmt.Fprintf(w, "per-round sha256:%s\n", formatMap(first.hashes))
	}
}

func formatMap[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%v", k, m[k])
	}
	return s
}

func printEndToEnd(w io.Writer, wl benchWorkload, untraced []*result, setups []float64, perBatch int, e2e map[string]float64) {
	calls := 0
	if len(untraced) > 0 {
		calls = untraced[0].calls
	}
	samples := map[string]string{
		"ops_per_s":   fmt.Sprintf("median of %d rounds (%s per second of round wall)", len(untraced), wl.op),
		"call_p50_us": fmt.Sprintf("median of %d rounds x %d %s calls", len(untraced), calls, wl.call),
		"call_p99_us": fmt.Sprintf("median of %d rounds x %d %s calls", len(untraced), calls, wl.call),
		"setup_s":     fmt.Sprintf("median of %d batch means (%d set-ups in the first batch)", len(setups), perBatch),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-14s %14.4f %-5s %s\n", d.name, e2e[d.name], d.unit, samples[d.name])
	}
	// Peak RSS moves with GC timing (by half on onion-pipeline), too much
	// to gate on; it is printed for reference.
	fmt.Fprintf(w, "  %-14s %14.4f MB    peak RSS of the process (not gated)\n", "max_rss_mb", maxRSSMB())
	fmt.Fprint(w, "  rounds (wall s/p50 us/p99 us):")
	for _, r := range untraced {
		fmt.Fprintf(w, " %.4f/%.2f/%.2f", r.wall.Seconds(), us(r.p50), us(r.p99))
	}
	fmt.Fprint(w, "\n  set-up batch means (s):")
	for _, s := range setups {
		fmt.Fprintf(w, " %.6f", s)
	}
	fmt.Fprintln(w)
	extra := medianOf(untraced, func(r *result) map[string]float64 { return r.extra })
	names := make([]string, 0, len(extra))
	for k := range extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-14s %14.4f       median of %d rounds (not gated)\n", k, extra[k], len(untraced))
	}
}
