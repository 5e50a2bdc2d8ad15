package obs

// Prometheus text-format exposition of the collector, stdlib only (the
// repo is dependency-free by policy). The exporter renders the same
// fixed-enum counters, log2 histograms, and phase timers the JSON run
// manifest reports, so a scrape mid-run and the manifest written at
// exit can be cross-checked total for total. Exposition follows the
// text format version 0.0.4:
//
//   - sum counters      -> <prefix><name>_total, TYPE counter
//   - high-water marks  -> <prefix><name>, TYPE gauge
//   - histograms        -> <prefix><name> with cumulative _bucket{le=...},
//     _sum and _count series, TYPE histogram (the le bounds are the
//     inclusive bucket upper bounds pinned by TestBucketSemantics; the
//     overflow bucket renders as le="+Inf")
//   - phase timers      -> <prefix>phase_seconds_total{phase=...} and
//     <prefix>phase_runs_total{phase=...}, TYPE counter
//
// ServeMetrics exposes the exposition over HTTP for the long-running
// commands (dtnload, dtnnode, dtndir -metrics); ServeMetricsFlag is the
// daemons' whole -metrics flag. The validating parser
// the end-to-end tests use lives in the test-helper package promtest.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"
)

// MetricPrefix namespaces every exported series.
const MetricPrefix = "dtn_"

// gaugeCounters marks the counters that are high-water marks rather
// than monotone sums; they export as gauges without the _total suffix.
var gaugeCounters = map[Counter]bool{
	DESQueueHighWater:    true,
	NodeCustodyHighWater: true,
}

var metricNameReplacer = strings.NewReplacer(".", "_", "-", "_")

// metricName converts a manifest key ("routing.contacts") into a
// Prometheus metric name ("dtn_routing_contacts").
func metricName(key string) string {
	return MetricPrefix + metricNameReplacer.Replace(key)
}

// escapeLabel escapes a label value per the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the collector snapshot in Prometheus text
// exposition format version 0.0.4.
func (c *Collector) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := Counter(0); i < numCounters; i++ {
		name := metricName(counterNames[i])
		typ := "counter"
		if gaugeCounters[i] {
			typ = "gauge"
		} else {
			name += "_total"
		}
		fmt.Fprintf(bw, "# HELP %s Run total of the %s %q.\n", name, typ, counterNames[i])
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		fmt.Fprintf(bw, "%s %d\n", name, c.counters[i].Load())
	}
	for h := Histogram(0); h < numHistograms; h++ {
		name := metricName(histogramNames[h])
		fmt.Fprintf(bw, "# HELP %s Distribution of %q (log2 buckets).\n", name, histogramNames[h])
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum int64
		for i := 0; i < histBuckets; i++ {
			n := c.buckets[h][i].Load()
			if n == 0 {
				continue
			}
			cum += n
			if ub := bucketUpperBound(i); ub != math.MaxInt64 {
				// The overflow bucket has no finite bound; its count is
				// folded into +Inf below.
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, ub, cum)
			}
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(bw, "%s_sum %d\n", name, c.histSum[h].Load())
		fmt.Fprintf(bw, "%s_count %d\n", name, cum)
	}
	secName := MetricPrefix + "phase_seconds_total"
	runName := MetricPrefix + "phase_runs_total"
	phases := c.Phases()
	fmt.Fprintf(bw, "# HELP %s Wall-clock seconds accumulated per named phase.\n", secName)
	fmt.Fprintf(bw, "# TYPE %s counter\n", secName)
	for _, p := range phases {
		fmt.Fprintf(bw, "%s{phase=\"%s\"} %g\n", secName, escapeLabel.Replace(p.Name), p.Seconds)
	}
	fmt.Fprintf(bw, "# HELP %s Completed runs per named phase.\n", runName)
	fmt.Fprintf(bw, "# TYPE %s counter\n", runName)
	for _, p := range phases {
		fmt.Fprintf(bw, "%s{phase=\"%s\"} %d\n", runName, escapeLabel.Replace(p.Name), p.Count)
	}
	return bw.Flush()
}

// MetricsServer serves a collector as a Prometheus scrape target.
type MetricsServer struct {
	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// ServeMetrics starts an HTTP server on addr (use "127.0.0.1:0" for an
// ephemeral port) exposing /metrics for c. When c is nil the handler
// falls back to the process-wide Active() collector at scrape time, and
// answers 503 while collection is disabled.
func ServeMetrics(addr string, c *Collector) (*MetricsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		col := c
		if col == nil {
			col = Active()
		}
		if col == nil {
			http.Error(w, "collection disabled: no collector installed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = col.WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dtn metrics endpoint; scrape /metrics\n")
	})
	s := &MetricsServer{
		lis:  lis,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(lis)
	}()
	return s, nil
}

// ServeMetricsFlag implements a daemon's -metrics flag: when addr is
// non-empty it installs a fresh process-wide collector, serves it as a
// scrape target, announces "<command>: serving metrics at URL" on out,
// and passes the URL to ready (if non-nil). It returns a shutdown func
// (never nil on success).
func ServeMetricsFlag(addr, command string, out io.Writer, ready func(url string)) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	col := NewCollector()
	Install(col)
	ms, err := ServeMetrics(addr, col)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: serving metrics at %s\n", command, ms.URL())
	if ready != nil {
		ready(ms.URL())
	}
	return func() { _ = ms.Close() }, nil
}

// Addr returns the server's listening address.
func (s *MetricsServer) Addr() string { return s.lis.Addr().String() }

// URL returns the scrape URL.
func (s *MetricsServer) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close shuts the server down and waits until the serve goroutine and
// every connection handler have exited (the goroutine-leak gates in the
// command tests depend on a full drain).
func (s *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// A hung connection outlived the grace period; tear it down.
		err = s.srv.Close()
	}
	<-s.done
	return err
}
