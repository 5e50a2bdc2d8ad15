// Command dtnsim runs one onion-routing scenario on a random contact
// graph and reports delivery, cost, and security metrics side by side
// with the paper's analytical models. Non-anonymous baselines
// (epidemic, spray-and-wait, direct) are available for comparison.
//
// Usage:
//
//	dtnsim -n 100 -g 5 -k 3 -l 3 -deadline 600 -compromised 0.1
//	dtnsim -protocol epidemic -deadline 600
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/atomicio"
	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	var (
		protocol    = fs.String("protocol", "onion", "onion | runtime | epidemic | sprayandwait | binaryspray | prophet | direct")
		n           = fs.Int("n", 100, "number of nodes")
		g           = fs.Int("g", 5, "onion group size")
		k           = fs.Int("k", 3, "number of onion groups (K)")
		l           = fs.Int("l", 1, "number of message copies (L)")
		spray       = fs.Bool("spray", true, "enable source spray-and-wait augmentation (L >= 2)")
		deadline    = fs.Float64("deadline", 600, "message deadline T, minutes")
		runs        = fs.Int("runs", 500, "number of routed messages")
		seed        = fs.Uint64("seed", 1, "root random seed")
		compromised = fs.Float64("compromised", 0.1, "compromised node fraction c/n")
		faults      = fs.Float64("faults", 0, "fault-injection rate in [0,1): contact loss for simulations, uniform fault mix for the runtime")
		graphPath   = fs.String("graph", "", "load the contact graph from a file (contact exchange format)")
		saveGraph   = fs.String("save-graph", "", "save the generated contact graph to a file")
		tracePath   = fs.String("trace", "", "replay a contact trace file instead of a synthetic graph (onion protocol only; deadline in seconds)")
	)
	bf := dispatch.AddFlags(fs)
	// -trace already means contact-trace replay here, so the runtime
	// execution-trace profile is spelled -exectrace.
	rf := obs.AddRunFlagsNamed(fs, "exectrace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *faults < 0 || *faults >= 1 {
		return fmt.Errorf("-faults must be in [0,1), got %v", *faults)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}
	// Persistence flags fail at validation time, before any simulation
	// state is built: a -cache for a protocol without a cache key, or a
	// directory path occupied by a regular file.
	if bf.Cache != "" && (*protocol != "onion" || *tracePath != "") {
		return fmt.Errorf("-cache supports only the synthetic-graph onion protocol")
	}
	if err := bf.Validate(); err != nil {
		return err
	}
	obsRun, err := rf.Begin("dtnsim", args)
	if err != nil {
		return err
	}
	defer obsRun.Abort()

	// SIGINT/SIGTERM drain the supervised trial loop (saving completed
	// trials under -cache) instead of losing the run.
	sess := bf.Start("dtnsim", obsRun)
	defer sess.Stop()

	endPhase := obs.Active().StartPhase(*protocol)
	switch {
	case *tracePath != "":
		if *protocol != "onion" {
			return fmt.Errorf("trace replay supports only the onion protocol")
		}
		err = runTrace(out, sess.Sup, *tracePath, *g, *k, *l, *spray, *deadline, *runs, *seed, *faults)
	case *protocol == "onion":
		oc := onionConfig{
			n: *n, g: *g, k: *k, l: *l, spray: *spray, deadline: *deadline,
			runs: *runs, seed: *seed, frac: *compromised, faults: *faults,
			graphPath: *graphPath, saveGraph: *saveGraph,
		}
		err = runOnion(out, oc, sess)
	case *protocol == "runtime":
		err = runRuntime(out, *n, *g, *k, *l, *spray, *deadline, *runs, *seed, *faults)
	case *protocol == "epidemic", *protocol == "sprayandwait", *protocol == "binaryspray",
		*protocol == "prophet", *protocol == "direct":
		err = runBaseline(out, sess.Sup, *protocol, *n, *l, *deadline, *runs, *seed, *faults)
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	endPhase()
	if err := sess.Finish(err); err != nil {
		return err
	}
	type manifestConfig struct {
		Protocol    string  `json:"protocol"`
		Nodes       int     `json:"nodes"`
		GroupSize   int     `json:"groupSize"`
		Relays      int     `json:"relays"`
		Copies      int     `json:"copies"`
		Spray       bool    `json:"spray"`
		Deadline    float64 `json:"deadline"`
		Runs        int     `json:"runs"`
		Compromised float64 `json:"compromised"`
		Trace       string  `json:"trace,omitempty"`
		Cache       string  `json:"cache,omitempty"`
	}
	mc := manifestConfig{
		Protocol: *protocol, Nodes: *n, GroupSize: *g, Relays: *k, Copies: *l,
		Spray: *spray, Deadline: *deadline, Runs: *runs, Compromised: *compromised,
		Trace: *tracePath, Cache: bf.Cache,
	}
	return obsRun.Finish(mc, *seed, 1, *faults)
}

// onionConfig carries runOnion's scenario parameters; the cache
// content key hashes every field that changes trial outcomes.
type onionConfig struct {
	n, g, k, l           int
	spray                bool
	deadline             float64
	runs                 int
	seed                 uint64
	frac, faults         float64
	graphPath, saveGraph string
	graphSum             string // hex sha256 of the loaded graph file's bytes ("" when synthetic)
}

// contentKey derives the run's content-addressed cache identity by
// hashing every outcome-affecting parameter: the scalar flags, the
// seed (seeds drive every trial, and the cache entry directory is this
// key — compare scenario.ContentKey, which also embeds Seed), and the
// sha256 of the loaded graph file's bytes rather than its path, so
// regenerating or editing the file at the same path changes the key
// instead of silently serving stale cached trials. Unlike the figure
// engine there is no scenario spec to hash, so the parameters go into
// the hash directly.
func (c onionConfig) contentKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "dtnsim/onion|n=%d|g=%d|K=%d|L=%d|spray=%v|T=%v|runs=%d|seed=%d|frac=%v|faults=%v|graphsha=%s",
		c.n, c.g, c.k, c.l, c.spray, c.deadline, c.runs, c.seed, c.frac, c.faults, c.graphSum)
	return hex.EncodeToString(h.Sum(nil))
}

// onionTrial is one routed message's outcome; gob-encoded into the
// cache, so every field is exported.
type onionTrial struct {
	Delivered       bool
	Time            float64
	Tx              float64
	Model           float64
	SecOK           bool
	Traceable, Anon float64
}

func runOnion(out io.Writer, c onionConfig, sess *dispatch.Session) error {
	cfg := core.Config{
		Nodes: c.n, GroupSize: c.g, Relays: c.k, Copies: c.l, Spray: c.spray,
		MinICT: 1, MaxICT: 360, Seed: c.seed, ContactFailure: c.faults,
	}
	var nw *core.Network
	var err error
	if c.graphPath != "" {
		raw, err := os.ReadFile(c.graphPath)
		if err != nil {
			return fmt.Errorf("open graph: %w", err)
		}
		// The graph determines the topology and with it every trial
		// outcome, so the cache key must track the file's contents,
		// not its path. Set graphSum before contentKey() below.
		sum := sha256.Sum256(raw)
		c.graphSum = hex.EncodeToString(sum[:])
		loaded, err := contact.ReadGraph(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		cfg.Nodes = loaded.N()
		nw, err = core.NewNetworkWithGraph(cfg, loaded)
		if err != nil {
			return err
		}
	} else {
		nw, err = core.NewNetwork(cfg)
		if err != nil {
			return err
		}
	}
	if c.saveGraph != "" {
		err := atomicio.WriteTo(c.saveGraph, 0o644, func(w io.Writer) error {
			_, err := nw.Graph().WriteTo(w)
			return err
		})
		if err != nil {
			return fmt.Errorf("save graph: %w", err)
		}
	}

	// One worker: trials share the network object, whose model caches
	// are not synchronized. Supervision still buys caching, drain on
	// SIGINT, and panic/watchdog quarantine.
	trialFn := func(i int) (onionTrial, error) {
		trial, err := nw.NewTrial(i)
		if err != nil {
			return onionTrial{}, err
		}
		res, err := nw.Route(trial, c.deadline, true, i)
		if err != nil {
			return onionTrial{}, err
		}
		var o onionTrial
		o.Delivered = res.Delivered
		o.Time = res.Time
		o.Tx = float64(res.Transmissions)
		// Thinned model: identical to ModelDelivery when faults == 0.
		o.Model, err = nw.ModelDeliveryLossy(trial, c.deadline)
		if err != nil {
			return onionTrial{}, err
		}
		sec, ok, err := nw.SecurityFromResult(res, c.frac, i)
		if err != nil {
			return onionTrial{}, err
		}
		if ok {
			o.SecOK, o.Traceable, o.Anon = true, sec.TraceableRate, sec.PathAnonymity
		}
		return o, nil
	}
	store, err := sess.Open(c.contentKey(), "dtnsim-onion", c.seed)
	if err != nil {
		return err
	}
	defer store.Close()
	trials, err := dispatch.Run(store, sess.Sup, "dtnsim/onion", 1, c.runs, trialFn)
	if err != nil {
		return err
	}
	var delivered int
	var delay, tx, modelDelivery stats.Accumulator
	var simTrace, simAnon stats.Accumulator
	for _, o := range trials {
		if o.Delivered {
			delivered++
			delay.Add(o.Time)
		}
		tx.Add(o.Tx)
		modelDelivery.Add(o.Model)
		if o.SecOK {
			simTrace.Add(o.Traceable)
			simAnon.Add(o.Anon)
		}
	}

	n, g, k, l, spray, deadline, runs, frac := c.n, c.g, c.k, c.l, c.spray, c.deadline, c.runs, c.frac
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\tn=%d g=%d K=%d L=%d spray=%v T=%v min c/n=%.0f%% faults=%v\n",
		n, g, k, l, spray, deadline, frac*100, c.faults)
	fmt.Fprintf(tw, "metric\tsimulation\tanalysis\n")
	fmt.Fprintf(tw, "delivery rate\t%.4f\t%.4f\n", float64(delivered)/float64(runs), modelDelivery.Mean())
	if delivered > 0 {
		fmt.Fprintf(tw, "mean delay (min)\t%.1f\t-\n", delay.Mean())
	}
	fmt.Fprintf(tw, "transmissions\t%.2f\t<= %d\n", tx.Mean(), model.CostMultiCopyBound(k, l))
	// Security trials only yield samples when a message was actually
	// routed past the adversary, so these accumulators can be empty.
	if simTrace.N() > 0 {
		fmt.Fprintf(tw, "traceable rate\t%.4f\t%.4f\n", simTrace.Mean(), nw.ModelTraceableRate(frac))
		fmt.Fprintf(tw, "path anonymity\t%.4f\t%.4f\n", simAnon.Mean(), nw.ModelPathAnonymity(frac))
	} else {
		fmt.Fprintf(tw, "traceable rate\tn/a\t%.4f\n", nw.ModelTraceableRate(frac))
		fmt.Fprintf(tw, "path anonymity\tn/a\t%.4f\n", nw.ModelPathAnonymity(frac))
	}
	return tw.Flush()
}

// runBaseline routes runs messages with a non-anonymous baseline, one
// supervised trial per message (one worker: trials share the graph).
func runBaseline(out io.Writer, sup *runner.Supervisor, name string, n, l int, deadline float64, runs int, seed uint64, faults float64) error {
	root := rng.New(seed)
	g := contactGraph(n, root)
	results, err := dispatch.Run(nil, sup, "dtnsim/"+name, 1, runs, func(i int) (routing.BaselineResult, error) {
		s := root.SplitN("run", i)
		src := s.IntN(n)
		dst := s.PickOther(n, src)
		var p interface {
			sim.Protocol
			Result() routing.BaselineResult
		}
		var err error
		switch name {
		case "epidemic":
			p, err = routing.NewEpidemic(nodeID(src), nodeID(dst))
		case "sprayandwait":
			p, err = routing.NewSprayAndWait(nodeID(src), nodeID(dst), l)
		case "binaryspray":
			p, err = routing.NewBinarySprayAndWait(nodeID(src), nodeID(dst), l)
		case "prophet":
			p, err = routing.NewProphet(n, nodeID(src), nodeID(dst))
		case "direct":
			p, err = routing.NewDirect(nodeID(src), nodeID(dst))
		}
		if err != nil {
			return routing.BaselineResult{}, err
		}
		sim.RunSynthetic(g, deadline, s.Split("contacts"),
			sim.Lossy(p, faults, s.Split("faults")))
		return p.Result(), nil
	})
	if err != nil {
		return err
	}
	var delay, tx stats.Accumulator
	for _, r := range results {
		if r.Delivered {
			delay.Add(r.Time)
		}
		tx.Add(float64(r.Transmissions))
	}
	delivered := delay.N()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "protocol\t%s (non-anonymous baseline)\n", name)
	fmt.Fprintf(tw, "delivery rate\t%.4f\n", float64(delivered)/float64(runs))
	if delivered > 0 {
		fmt.Fprintf(tw, "mean delay (min)\t%.1f\n", delay.Mean())
	}
	fmt.Fprintf(tw, "transmissions\t%.2f\n", tx.Mean())
	return tw.Flush()
}

func contactGraph(n int, root *rng.Stream) *contact.Graph {
	return contact.NewRandom(n, 1, 360, root.Split("graph"))
}

func nodeID(v int) contact.NodeID { return contact.NodeID(v) }

// traceTrial is one replayed message's outcome.
type traceTrial struct {
	Delivered bool
	Delay     float64
	Tx        float64
	Model     float64
	Modelled  bool // the analysis fitted this trial's path
}

// runTrace replays a contact trace file (deadline interpreted in
// seconds, as in the paper's trace figures), one supervised trial per
// message (one worker: trials share the trace network's caches).
func runTrace(out io.Writer, sup *runner.Supervisor, path string, g, k, l int, spray bool, deadline float64, runs int, seed uint64, faults float64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	tr, perr := trace.ParseReader(f)
	if cerr := f.Close(); cerr != nil && perr == nil {
		perr = cerr
	}
	if perr != nil {
		return perr
	}
	tn, err := core.NewTraceNetwork(tr, seed)
	if err != nil {
		return err
	}
	results, err := dispatch.Run(nil, sup, "dtnsim/trace", 1, runs, func(i int) (traceTrial, error) {
		trial, err := tn.NewTrial(i, g, k)
		if err != nil {
			return traceTrial{}, err
		}
		res, err := tn.RouteLossy(trial, deadline, l, spray, true, faults, i)
		if err != nil {
			return traceTrial{}, err
		}
		o := traceTrial{Delivered: res.Delivered, Delay: res.Time - trial.Start, Tx: float64(res.Transmissions)}
		o.Model, o.Modelled, err = tn.ModelDelivery(trial, deadline, l)
		return o, err
	})
	if err != nil {
		return err
	}
	var delay, tx, modelAcc stats.Accumulator
	for _, o := range results {
		if o.Delivered {
			delay.Add(o.Delay)
		}
		tx.Add(o.Tx)
		if o.Modelled {
			modelAcc.Add(o.Model)
		}
	}
	delivered, modelled := delay.N(), modelAcc.N()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "trace\t%s (%d nodes, %d contacts)\n", path, tr.NodeCount, len(tr.Contacts))
	fmt.Fprintf(tw, "scenario\tg=%d K=%d L=%d spray=%v T=%v s\n", g, k, l, spray, deadline)
	if modelled > 0 {
		fmt.Fprintf(tw, "delivery rate\t%.4f (analysis %.4f over %d/%d fitted trials)\n",
			float64(delivered)/float64(runs), modelAcc.Mean(), modelled, runs)
	} else {
		fmt.Fprintf(tw, "delivery rate\t%.4f (analysis n/a, 0/%d fitted trials)\n",
			float64(delivered)/float64(runs), runs)
	}
	if delivered > 0 {
		fmt.Fprintf(tw, "mean delay (s)\t%.0f\n", delay.Mean())
	}
	fmt.Fprintf(tw, "transmissions\t%.2f\n", tx.Mean())
	return tw.Flush()
}

// runRuntime offers a Poisson stream of fully encrypted messages to
// the message-level runtime (internal/node) — the system-test view.
func runRuntime(out io.Writer, n, g, k, l int, spray bool, deadline float64, runs int, seed uint64, faults float64) error {
	nw, err := node.NewNetwork(node.Config{
		Nodes: n, GroupSize: g, Seed: seed, Spray: spray, AntiPackets: true,
		Faults: fault.Uniform(faults),
	})
	if err != nil {
		return err
	}
	graph := contactGraph(n, rng.New(seed))
	res, err := workload.Run(nw, graph, workload.Spec{
		Messages:     runs,
		ArrivalRate:  1,
		PayloadSize:  256,
		Relays:       k,
		Copies:       l,
		PadTo:        2048,
		ExpiryAfter:  deadline,
		Seed:         seed,
		TrackBuffers: true,
	}, float64(runs)+2*deadline)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "runtime\t%d nodes, real AES-GCM onions, anti-packets on\n", n)
	fmt.Fprintf(tw, "offered\t%d messages (Poisson, 1/min), K=%d L=%d spray=%v, T=%v min\n",
		runs, k, l, spray, deadline)
	fmt.Fprintf(tw, "delivery rate\t%.4f\n", res.DeliveryRatio)
	if res.Delivered > 0 {
		var delay stats.Accumulator
		for _, l := range res.Latencies {
			delay.Add(l)
		}
		fmt.Fprintf(tw, "mean delay (min)\t%.1f\n", delay.Mean())
	}
	fmt.Fprintf(tw, "peak buffered onions\t%d\n", res.PeakBuffered)
	fmt.Fprintf(tw, "hand-offs\t%d (rejected %d, refused %d, purged %d, expired %d)\n",
		res.Totals.Forwarded, res.Totals.Rejected, res.Totals.Refused,
		res.Totals.Purged, res.Totals.Expired)
	if faults > 0 {
		fmt.Fprintf(tw, "injected faults\t%d truncated (%d retransmits), %d corrupted, %d duplicates, %d crashes (%d custody dropped)\n",
			res.Totals.Truncated, res.Totals.Retried, res.Totals.Corrupted,
			res.Totals.Duplicates, res.Totals.Crashes, res.Totals.CrashDropped)
	}
	return tw.Flush()
}
