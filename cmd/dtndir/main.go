// Command dtndir runs the cluster's bulletin-board/directory service:
// it owns the onion-group partition and the symmetric layer keys,
// admits dtnnode daemons, and hands each joiner the membership table
// plus every key as Shamir threshold shares.
//
// With -coordinate it additionally acts as the replay coordinator:
// once all -n daemons have registered it injects a deterministic
// workload, replays a contact trace as live contacts between the
// daemons, prints a delivery summary, and shuts the fleet down.
//
// Usage:
//
//	dtndir -listen 127.0.0.1:7700 -n 5 -g 2 -seed 11
//	dtndir -n 5 -g 2 -seed 11 -coordinate -trace infocom -horizon 14400 -msgs 20
//	dtndir -n 8 -g 3 -coordinate -trace contacts.txt -from 0 -horizon 3600
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/contact"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dtndir:", err)
		os.Exit(1)
	}
}

// metricsReady, when set by a test, receives the metrics scrape URL
// once the endpoint is serving.
var metricsReady func(url string)

// run is the testable entry point. ready, when non-nil, is called with
// the listening address once the service is reachable.
func run(args []string, out io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("dtndir", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:0", "listen address")
		n          = fs.Int("n", 5, "number of nodes the cluster will have")
		g          = fs.Int("g", 2, "onion group size")
		seed       = fs.Uint64("seed", 1, "root seed: partition, workload, and path draws")
		shares     = fs.Int("shares", 5, "shamir shares per distributed key")
		threshold  = fs.Int("threshold", 3, "shamir threshold per distributed key")
		coordinate = fs.Bool("coordinate", false, "after all nodes join, drive a workload replay and exit")
		traceArg   = fs.String("trace", "infocom", `contact trace: "infocom", "cambridge", or a trace file path`)
		from       = fs.Float64("from", 0, "replay window start, seconds")
		horizon    = fs.Float64("horizon", 14400, "replay window length, seconds")
		msgs       = fs.Int("msgs", 20, "workload messages to inject")
		relays     = fs.Int("relays", 1, "onion relay groups per message (K)")
		copies     = fs.Int("copies", 2, "spray copies per message (L)")
		joinWait   = fs.Duration("join-wait", 60*time.Second, "how long to wait for all nodes to register")
		metrics    = fs.String("metrics", "", "serve live Prometheus /metrics on this address (enables the observability collector)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	closeMetrics, err := obs.ServeMetricsFlag(*metrics, "dtndir", out, metricsReady)
	if err != nil {
		return err
	}
	defer closeMetrics()
	dir, err := cluster.NewDir(cluster.DirConfig{
		Nodes:     *n,
		GroupSize: *g,
		Seed:      *seed,
		Shares:    *shares,
		Threshold: *threshold,
	})
	if err != nil {
		return err
	}
	if err := dir.Start(*listen); err != nil {
		return err
	}
	defer dir.Close()
	fmt.Fprintf(out, "dtndir: serving %d-node directory (g=%d, seed=%d, %d-of-%d key shares) on %s\n",
		*n, *g, *seed, *threshold, *shares, dir.Addr())
	if ready != nil {
		ready(dir.Addr())
	}

	if !*coordinate {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}

	tr, err := loadTrace(*traceArg, *n, *seed)
	if err != nil {
		return err
	}
	if err := waitMembers(dir, *n, *joinWait); err != nil {
		return err
	}
	fmt.Fprintf(out, "dtndir: all %d nodes registered\n", *n)
	return coordinateReplay(out, dir, tr, *seed, *n, *msgs, *relays, *copies, *from, *horizon)
}

// loadTrace resolves the -trace argument: a named synthetic trace
// (derived from the root seed's "trace" substream, so runs reproduce)
// or a trace file in the internal/trace text format.
func loadTrace(arg string, n int, seed uint64) (*trace.Trace, error) {
	switch arg {
	case "infocom", "cambridge":
		gen := trace.GenerateInfocom
		if arg == "cambridge" {
			gen = trace.GenerateCambridge
		}
		tr, err := gen(rng.New(seed).Split("trace"))
		if err != nil {
			return nil, err
		}
		// The synthetic campus traces have a fixed population; keep the
		// n busiest nodes and compact IDs to [0, n).
		return tr.KeepBusiest(n)
	default:
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.ParseReader(f)
		if err != nil {
			return nil, fmt.Errorf("parse trace %s: %w", arg, err)
		}
		if tr.NodeCount != n {
			return nil, fmt.Errorf("trace %s has %d nodes, cluster has %d", arg, tr.NodeCount, n)
		}
		return tr, nil
	}
}

// waitMembers polls until want nodes are registered.
func waitMembers(dir *cluster.Dir, want int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for dir.Members() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d nodes registered after %s", dir.Members(), want, wait)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// coordinateReplay injects the workload, replays the trace window as
// live contacts (serially — the concurrent scheduler is the in-process
// harness's job), prints the summary, and shuts the daemons down.
func coordinateReplay(out io.Writer, dir *cluster.Dir, tr *trace.Trace, seed uint64, n, msgs, relays, copies int, from, horizon float64) error {
	co := cluster.NewCoordinator(0)
	defer co.Close()
	addrOf := func(v contact.NodeID) (string, error) {
		addr, ok := dir.MemberAddr(v)
		if !ok {
			return "", fmt.Errorf("node %d not registered", v)
		}
		return addr, nil
	}

	workload := cluster.SyntheticWorkload(seed, n, msgs, relays, copies)
	for _, m := range workload {
		addr, err := addrOf(m.Src)
		if err != nil {
			return err
		}
		if err := co.Inject(addr, seed, m); err != nil {
			return fmt.Errorf("inject message %d at node %d: %w", m.Index, m.Src, err)
		}
	}
	fmt.Fprintf(out, "dtndir: injected %d messages\n", len(workload))

	contacts := 0
	end := from + horizon
	for _, c := range tr.Contacts {
		if c.Start < from || c.Start > end {
			continue
		}
		aAddr, err := addrOf(c.A)
		if err != nil {
			return err
		}
		bAddr, err := addrOf(c.B)
		if err != nil {
			return err
		}
		if err := co.Contact(aAddr, c.B, bAddr, c.Start); err != nil {
			return fmt.Errorf("contact %d-%d at t=%.1f: %w", c.A, c.B, c.Start, err)
		}
		contacts++
	}
	fmt.Fprintf(out, "dtndir: replayed %d contacts over [%.0fs, %.0fs]\n", contacts, from, end)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tsent\tforwarded\tcarried\tdelivered\tbuffered")
	var total cluster.StatsSubset
	delivered := 0
	for v := 0; v < n; v++ {
		addr, err := addrOf(contact.NodeID(v))
		if err != nil {
			return err
		}
		rs, err := co.Stats(addr)
		if err != nil {
			return fmt.Errorf("stats from node %d: %w", v, err)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\n", v,
			rs.Stats.Sent, rs.Stats.Forwarded, rs.Stats.Carried, rs.Stats.Delivered, rs.BufferLen)
		total.Sent += rs.Stats.Sent
		total.Forwarded += rs.Stats.Forwarded
		total.Carried += rs.Stats.Carried
		total.Delivered += rs.Stats.Delivered
		delivered += len(rs.Deliveries)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "dtndir: delivered %d/%d messages (sent=%d forwarded=%d carried=%d)\n",
		delivered, len(workload), total.Sent, total.Forwarded, total.Carried)

	for v := 0; v < n; v++ {
		addr, err := addrOf(contact.NodeID(v))
		if err != nil {
			continue
		}
		if err := co.Quit(addr); err != nil {
			fmt.Fprintf(out, "dtndir: quit node %d: %v\n", v, err)
		}
	}
	return nil
}
