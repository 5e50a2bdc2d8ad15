// Command dtnnode runs one DTN node as a network daemon: it joins the
// directory service (dtndir), reconstructs the group structure and
// layer keys from its welcome (Shamir threshold shares), and then
// speaks the custody offer/verdict protocol over length-framed TCP —
// the same internal/bundle wire format the in-process simulator uses,
// so truncation and tamper classification applies to real socket
// tears.
//
// Usage:
//
//	dtnnode -id 0 -dir 127.0.0.1:7700
//	dtnnode -id 3 -dir 127.0.0.1:7700 -listen 127.0.0.1:7713 -buffer 64 -spray=false
//
// Startup order is free: a node started before its directory keeps
// retrying the registration with jittered backoff for -join-wait
// (default 15s) and comes up the moment the directory is listening.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dtnnode:", err)
		os.Exit(1)
	}
}

// metricsReady, when set by a test, receives the metrics scrape URL
// once the endpoint is serving.
var metricsReady func(url string)

// run is the testable entry point. ready, when non-nil, is called with
// the daemon's listening address once it has joined the directory.
func run(args []string, out io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("dtnnode", flag.ContinueOnError)
	var (
		id       = fs.Int("id", -1, "node id (required, matches the directory's population)")
		dirAddr  = fs.String("dir", "", "directory service address (required)")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address")
		buffer   = fs.Int("buffer", 0, "custody buffer limit (0 = unlimited)")
		spray    = fs.Bool("spray", true, "offer spray copies to non-members while tickets remain")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-connection socket timeout")
		budget   = fs.Duration("contact-budget", 0, "wall-clock cap per contact connection (0 = uncapped)")
		joinWait = fs.Duration("join-wait", 15*time.Second, "keep retrying the directory registration with backoff for this long (0 = a single attempt)")
		metrics  = fs.String("metrics", "", "serve live Prometheus /metrics on this address (enables the observability collector)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 {
		return fmt.Errorf("missing -id")
	}
	if *dirAddr == "" {
		return fmt.Errorf("missing -dir")
	}
	closeMetrics, err := obs.ServeMetricsFlag(*metrics, "dtnnode", out, metricsReady)
	if err != nil {
		return err
	}
	defer closeMetrics()
	d, err := cluster.StartDaemon(cluster.DaemonConfig{
		ID:            *id,
		DirAddr:       *dirAddr,
		ListenAddr:    *listen,
		BufferLimit:   *buffer,
		Spray:         *spray,
		Timeout:       *timeout,
		ContactBudget: *budget,
		JoinWait:      *joinWait,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dtnnode: node %d joined %s, serving on %s\n", *id, *dirAddr, d.Addr())
	if ready != nil {
		ready(d.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	go func() {
		d.Wait()
		close(done)
	}()
	select {
	case <-sig:
		if err := d.Close(); err != nil {
			return err
		}
		<-done
	case <-done:
	}
	s := d.Node().Stats()
	fmt.Fprintf(out, "dtnnode: node %d done: sent=%d forwarded=%d carried=%d delivered=%d\n",
		*id, s.Sent, s.Forwarded, s.Carried, s.Delivered)
	return nil
}
