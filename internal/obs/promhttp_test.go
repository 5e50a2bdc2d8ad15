package obs

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/promtest"
)

// populated returns a collector with every metric kind exercised,
// including an overflow and a negative observation.
func populated() *Collector {
	c := NewCollector()
	c.Add(RoutingContacts, 42)
	c.Add(NodeDeliveries, 7)
	c.RecordMax(NodeCustodyHighWater, 19)
	c.Observe(HistContactTransfers, 0)
	c.Observe(HistContactTransfers, 1)
	c.Observe(HistContactTransfers, 3)
	c.Observe(HistContactTransfers, -9)    // clamps to bucket 0
	c.Observe(HistContactTransfers, 1<<61) // overflow bucket
	c.StartPhase("scan")()
	c.StartPhase("scan")()
	return c
}

func TestWritePrometheusParsesAndMatches(t *testing.T) {
	c := populated()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := promtest.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("dtn_routing_contacts_total"); !ok || v != 42 {
		t.Errorf("dtn_routing_contacts_total = %v, %v; want 42", v, ok)
	}
	if typ := exp.Types["dtn_node_custody_high_water"]; typ != "gauge" {
		t.Errorf("high-water type = %q, want gauge", typ)
	}
	if v, ok := exp.Value("dtn_node_custody_high_water"); !ok || v != 19 {
		t.Errorf("dtn_node_custody_high_water = %v, %v; want 19", v, ok)
	}
	if typ := exp.Types["dtn_node_contact_transfers"]; typ != "histogram" {
		t.Errorf("histogram type = %q", typ)
	}
	// 5 observations total: the overflow one appears only in +Inf.
	if v, ok := exp.Value(`dtn_node_contact_transfers_bucket{le="+Inf"}`); !ok || v != 5 {
		t.Errorf(`+Inf bucket = %v, %v; want 5`, v, ok)
	}
	if v, ok := exp.Value("dtn_node_contact_transfers_count"); !ok || v != 5 {
		t.Errorf("count = %v, %v; want 5", v, ok)
	}
	// Bucket 0 holds the zero and the clamped negative.
	if v, ok := exp.Value(`dtn_node_contact_transfers_bucket{le="0"}`); !ok || v != 2 {
		t.Errorf(`le="0" bucket = %v, %v; want 2`, v, ok)
	}
	// Sum: 0+1+3+0(clamped)+2^61.
	if v, ok := exp.Value("dtn_node_contact_transfers_sum"); !ok || v != float64(int64(1)<<61)+4 {
		t.Errorf("sum = %v, %v", v, ok)
	}
	if v, ok := exp.Value(`dtn_phase_runs_total{phase="scan"}`); !ok || v != 2 {
		t.Errorf("phase runs = %v, %v; want 2", v, ok)
	}
	// No finite bucket may carry the MaxInt64 bound.
	if strings.Contains(buf.String(), "9223372036854775807") &&
		strings.Contains(buf.String(), `le="9223372036854775807"`) {
		t.Errorf("overflow bucket leaked a finite le bound:\n%s", buf.String())
	}
}

func TestExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"duplicate TYPE": "# TYPE a counter\na 1\n# TYPE a counter\n",
		"duplicate HELP": "# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n",
		"untyped sample": "a 1\n",
		"bad value":      "# TYPE a counter\na one\n",
		"no +Inf":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"not cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf != count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, in := range cases {
		if _, err := promtest.ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestMetricsServerScrapeAndShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	c := populated()
	s, err := ServeMetrics("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	exp, err := promtest.ParseExposition(body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if v, ok := exp.Value("dtn_routing_contacts_total"); !ok || v != 42 {
		t.Errorf("scraped dtn_routing_contacts_total = %v, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The serve goroutine and every handler must drain: no leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("metrics server leaked goroutines: %d -> %d\n%s", before, now, buf[:n])
	}
}

func TestMetricsServerDisabledCollector(t *testing.T) {
	s, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get(s.URL())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while collection is disabled", resp.StatusCode)
	}
}
