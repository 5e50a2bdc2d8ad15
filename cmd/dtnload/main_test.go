package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/promtest"
)

func TestSimEpochSLOVerdicts(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-rate", "1", "-horizon", "120", "-drain", "600",
		"-slo-ratio", "0.5", "-slo-p99", "600",
	}, &buf, nil)
	if err != nil {
		t.Fatalf("passing run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"SLO: PASS", "p99", "offered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	err = run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-rate", "1", "-horizon", "120", "-drain", "600",
		"-slo-ratio", "1.1", // unsatisfiable: ratio cannot exceed 1
	}, &buf, nil)
	if err == nil || !strings.Contains(err.Error(), "SLO breached") {
		t.Fatalf("breaching run returned %v, want an SLO-breach error", err)
	}
	if !strings.Contains(buf.String(), "SLO: BREACH") {
		t.Errorf("output missing breach verdict:\n%s", buf.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "warp"}, &buf, nil); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "cluster", "-crash", "0.1"}, &buf, nil); err == nil {
		t.Error("cluster mode accepted -crash")
	}
	if err := run([]string{"-mode", "sim", "-chaos"}, &buf, nil); err == nil {
		t.Error("sim mode accepted -chaos")
	}
	if err := run([]string{"-mode", "cluster", "-chaos-plan", filepath.Join(t.TempDir(), "p.json")}, &buf, nil); err == nil {
		t.Error("-chaos-plan accepted without -chaos")
	}

	// Workload flags are checked up front in both modes: each bad value
	// must come back as an error before any epoch (or cluster) starts,
	// never as a panic from deep inside the run.
	bad := [][]string{
		{"-rate", "0"},
		{"-payload", "-1"},
		{"-horizon", "0"},
		{"-drain", "-5"},
		{"-expiry", "-3"},
		{"-ict-min", "0"},
		{"-ict-min", "5", "-ict-max", "5"},
	}
	for _, mode := range []string{"sim", "cluster"} {
		for _, flags := range bad {
			args := append([]string{"-mode", mode, "-nodes", "4", "-group", "1"}, flags...)
			switch err := run(args, &buf, nil); {
			case err == nil:
				t.Errorf("%v accepted", args)
			case strings.HasPrefix(err.Error(), "epoch"):
				t.Errorf("%v failed inside an epoch, not up front: %v", args, err)
			}
		}
	}
}

// TestClusterChaosSoak: one cluster epoch under -chaos must survive the
// full turbulence schedule — injected connection faults, partitions,
// and a mid-epoch directory blackout — pass the always-on invariant
// checker, dump a chaos plan that is a pure function of -chaos-seed,
// and account the whole ordeal in the manifest's chaos/retry counter
// families.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP cluster")
	}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	planPath := filepath.Join(dir, "plan.json")
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "cluster", "-nodes", "6", "-group", "2",
		"-relays", "1", "-copies", "2",
		"-rate", "1", "-horizon", "30", "-drain", "60",
		"-ict-min", "1", "-ict-max", "5",
		"-timeout", "10s", "-join-wait", "500ms",
		"-chaos", "-chaos-seed", "42", "-chaos-plan", planPath,
		"-manifest", manifestPath,
	}, &buf, nil)
	if err != nil {
		t.Fatalf("chaos soak failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "chaos armed (seed 42") {
		t.Errorf("chaos banner missing:\n%s", buf.String())
	}

	// Determinism: the dumped plan is exactly NewPlan(seed, nodes) —
	// worker count, timing, and the epoch's outcome never leak into it.
	gotPlan, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := append(chaos.NewPlan(42, 6).JSON(), '\n')
	if !bytes.Equal(gotPlan, wantPlan) {
		t.Errorf("dumped plan is not the deterministic schedule for seed 42:\n got %s\nwant %s", gotPlan, wantPlan)
	}

	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	// The same plan rides in the manifest's config block.
	var withConfig struct {
		Config struct {
			Chaos json.RawMessage `json:"chaos"`
		} `json:"config"`
	}
	if err := json.Unmarshal(raw, &withConfig); err != nil {
		t.Fatal(err)
	}
	var embedded, direct chaos.Plan
	if err := json.Unmarshal(withConfig.Config.Chaos, &embedded); err != nil {
		t.Fatalf("manifest config block has no chaos plan: %v", err)
	}
	if err := json.Unmarshal(bytes.TrimSuffix(gotPlan, []byte("\n")), &direct); err != nil {
		t.Fatal(err)
	}
	if embedded.Seed != 42 || len(embedded.Slots) != len(direct.Slots) || len(embedded.Blackouts) != len(direct.Blackouts) {
		t.Errorf("manifest chaos plan diverges from the -chaos-plan dump: %+v", embedded)
	}

	// The turbulence and self-healing families must all show activity:
	// slot 0 is non-clean so the very first connection injects, the
	// blackout drill crashes the directory at least once, and the
	// proven-to-fail revalidation against the dark directory costs
	// retries and trips a breaker.
	for _, name := range []string{"chaos.injected", "chaos.blackouts", "retry.attempts", "breaker.opens"} {
		v, ok := m.Counter(name)
		if !ok {
			t.Errorf("manifest missing counter %q", name)
			continue
		}
		if v == 0 {
			t.Errorf("%s = 0 after a chaos soak, want nonzero", name)
		}
	}
	// Chaos may delay deliveries, never lose the run: load flowed.
	if v, _ := m.Counter("load.injected"); v == 0 {
		t.Error("chaos soak injected nothing")
	}
	if v, _ := m.Counter("load.delivered"); v == 0 {
		t.Error("chaos soak delivered nothing")
	}
}

// TestClusterMetricsMatchManifest is the end-to-end gate for service
// mode: dtnload drives a live 3-node loopback cluster while serving
// -metrics, the final scrape must be well-formed exposition with
// nonzero contact and custody activity, every scraped total must equal
// the run manifest's, and the metrics server must not leak goroutines
// on shutdown.
func TestClusterMetricsMatchManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP cluster")
	}
	baseline := runtime.NumGoroutine()

	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	var scrape []byte
	var scrapeURL string
	testBeforeExit = func(url string) {
		scrapeURL = url
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q, want text format 0.0.4", ct)
		}
		scrape, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read scrape: %v", err)
		}
	}
	defer func() { testBeforeExit = nil }()

	var buf bytes.Buffer
	err := run([]string{
		"-mode", "cluster", "-nodes", "3", "-group", "1",
		"-relays", "1", "-copies", "2",
		"-rate", "1", "-horizon", "60", "-drain", "240", "-timeout", "10s",
		"-metrics", "127.0.0.1:0",
		"-manifest", manifestPath,
	}, &buf, nil)
	if err != nil {
		t.Fatalf("cluster run failed: %v\n%s", err, buf.String())
	}
	if scrapeURL == "" || len(scrape) == 0 {
		t.Fatal("metrics endpoint was never scraped")
	}

	exp, err := promtest.ParseExposition(scrape)
	if err != nil {
		t.Fatalf("final scrape is not valid exposition: %v", err)
	}

	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}

	// The live cluster must have produced real activity, and the
	// scrape and the manifest must agree on every checked total.
	checks := []struct {
		manifest string
		series   string
		nonzero  bool
	}{
		{"cluster.contacts", "dtn_cluster_contacts_total", true},
		{"cluster.dials", "dtn_cluster_dials_total", true},
		{"node.contacts", "dtn_node_contacts_total", true},
		{"node.handoffs", "dtn_node_handoffs_total", true},
		{"node.custody_high_water", "dtn_node_custody_high_water", true},
		{"load.injected", "dtn_load_injected_total", true},
		{"load.delivered", "dtn_load_delivered_total", true},
		{"load.slo_breaches", "dtn_load_slo_breaches_total", false},
	}
	for _, c := range checks {
		want, ok := m.Counter(c.manifest)
		if !ok {
			t.Errorf("manifest missing counter %q", c.manifest)
			continue
		}
		got, ok := exp.Value(c.series)
		if !ok {
			t.Errorf("scrape missing series %q", c.series)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s: scrape %v != manifest %d", c.series, got, want)
		}
		if c.nonzero && want == 0 {
			t.Errorf("%s: expected nonzero activity", c.manifest)
		}
	}

	// The delivery-latency histogram must be live and coherent with
	// the delivered counter.
	delivered, _ := m.Counter("load.delivered")
	if count, ok := exp.Value(`dtn_load_delivery_latency_ms_count`); !ok || count != float64(delivered) {
		t.Errorf("latency histogram count = %v (ok=%v), want %d", count, ok, delivered)
	}

	// The server is down: the scrape URL must refuse connections and
	// the serving goroutines must drain back to the baseline.
	if _, err := http.Get(scrapeURL); err == nil {
		t.Error("metrics endpoint still serving after run returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutine leak after shutdown: %d > baseline %d", n, baseline)
	}
}

// TestChurnDeliveryRatioGate is the machine-independent churn gate: at
// seed 42 and 2 messages/min on the default 40-node topology, a sim run
// with per-contact crash probability 0.02 must keep at least half the
// delivery ratio of the same run fault-free. Both ratios are sim-time
// quantities, so the bound holds on any machine.
func TestChurnDeliveryRatioGate(t *testing.T) {
	o := options{
		mode: "sim", nodes: 40, group: 5, seed: 42, spray: true,
		rate: 2, burstFrac: 0.1, burstDwell: 5,
		horizon: 240, drain: 240, ictMin: 1, ictMax: 20,
		relays: 2, copies: 2, payload: 64,
	}
	clean, err := runOnce(o, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	o.crash = 0.02
	churn, err := runOnce(o, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Injected == 0 || churn.Injected != clean.Injected {
		t.Fatalf("injected %d fault-free vs %d under churn; want the same nonzero schedule", clean.Injected, churn.Injected)
	}
	t.Logf("delivery ratio: churn %.4f, fault-free %.4f", churn.DeliveryRatio, clean.DeliveryRatio)
	const gate = 0.5
	if churn.DeliveryRatio < gate*clean.DeliveryRatio {
		t.Fatalf("churn delivery ratio %.4f < %.2f x fault-free %.4f", churn.DeliveryRatio, gate, clean.DeliveryRatio)
	}
}

// TestUnroutableSendFailsRun: a message whose path cannot be built (4
// nodes in groups of 2 leave no eligible groups for a 2-relay path)
// was never offered to the network, so it must fail the run in both
// modes instead of counting as an undelivered injection.
func TestUnroutableSendFailsRun(t *testing.T) {
	for _, mode := range []string{"sim", "cluster"} {
		var buf bytes.Buffer
		err := run([]string{
			"-mode", mode, "-nodes", "4", "-group", "2", "-relays", "2",
			"-horizon", "30", "-drain", "30",
		}, &buf, nil)
		if err == nil || !strings.Contains(err.Error(), "workload: inject message 0") {
			t.Errorf("%s: unroutable send returned %v, want an inject error\n%s", mode, err, buf.String())
		}
	}
}

// TestSimAndClusterEpochsAgree: both backends run the same open-loop
// driver, so at the same seed a sim epoch and a cluster epoch must
// agree record for record — the same arrivals, the same deliveries at
// the same sim times, and the same conserved counters. Message IDs may
// differ (they are drawn from crypto/rand).
func TestSimAndClusterEpochsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	base := options{
		spray: true, burstFrac: 0.1, burstDwell: 5,
		ictMin: 1, ictMax: 20, payload: 64,
		timeout: 10 * time.Second, joinWait: 2 * time.Second,
	}
	cases := map[string]func(o *options){
		"poisson": func(o *options) {
			o.nodes, o.group, o.relays, o.copies = 6, 2, 1, 2
			o.rate, o.horizon, o.drain = 2, 60, 60
		},
		"backpressure": func(o *options) {
			o.nodes, o.group, o.relays, o.copies = 10, 2, 2, 3
			o.rate, o.horizon, o.drain = 3, 40, 60
			o.buffer, o.reoffer = 8, 3
		},
		"expiry-bursty": func(o *options) {
			o.nodes, o.group, o.relays, o.copies = 8, 2, 1, 2
			o.rate, o.horizon, o.drain = 2, 40, 40
			o.expiry, o.burst = 20, 6
		},
	}
	for name, set := range cases {
		for _, seed := range []uint64{1, 42} {
			o := base
			set(&o)
			o.mode = "sim"
			sim, err := runOnce(o, seed)
			if err != nil {
				t.Fatalf("%s seed %d sim: %v", name, seed, err)
			}
			o.mode = "cluster"
			cl, err := runOnce(o, seed)
			if err != nil {
				t.Fatalf("%s seed %d cluster: %v", name, seed, err)
			}
			where := fmt.Sprintf("%s seed %d", name, seed)
			if sim.Injected == 0 || sim.Delivered == 0 {
				t.Fatalf("%s: vacuous epoch: injected %d, delivered %d", where, sim.Injected, sim.Delivered)
			}
			if sim.Injected != cl.Injected || sim.Delivered != cl.Delivered || sim.PeakBuffered != cl.PeakBuffered {
				t.Errorf("%s: sim injected/delivered/peak %d/%d/%d, cluster %d/%d/%d", where,
					sim.Injected, sim.Delivered, sim.PeakBuffered, cl.Injected, cl.Delivered, cl.PeakBuffered)
			}
			if !reflect.DeepEqual(sim.Latencies, cl.Latencies) {
				t.Errorf("%s: latencies differ:\n sim %v\n cluster %v", where, sim.Latencies, cl.Latencies)
			}
			if len(sim.Records) != len(cl.Records) {
				t.Fatalf("%s: %d sim records, %d cluster records", where, len(sim.Records), len(cl.Records))
			}
			for i, s := range sim.Records {
				c := cl.Records[i]
				if s.Src != c.Src || s.Dst != c.Dst || s.SentAt != c.SentAt ||
					s.Delivered != c.Delivered || s.DeliveredAt != c.DeliveredAt {
					t.Errorf("%s: record %d: sim %+v, cluster %+v", where, i, s, c)
					break
				}
			}
			st, ct := sim.Totals, cl.Totals
			if st.Sent != ct.Sent || st.Forwarded != ct.Forwarded || st.Carried != ct.Carried ||
				st.Delivered != ct.Delivered || st.Refused != ct.Refused ||
				st.BackpressureDropped != ct.BackpressureDropped {
				t.Errorf("%s: totals differ:\n sim %+v\n cluster %+v", where, st, ct)
			}
		}
	}
}

// TestClusterNodeCountersMatchSim: on a back-pressure workload (full
// buffers refuse offers, copies are dropped after three refusals) the
// cluster epoch's manifest must carry the sim epoch's node.* counters,
// seeds 1 and 42. The responder of a live contact accounts for what
// its initiator cannot see: its own re-offer drops and its custody.
// Both tiers skip copies the receiver has already seen (the cluster
// through its contact preamble's seen flags), so node.rejected agrees
// too; only node.wire_bytes differs (counted by the in-process fault
// pipe).
func TestClusterNodeCountersMatchSim(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	counters := func(t *testing.T, mode string, seed uint64) map[string]int64 {
		t.Helper()
		path := filepath.Join(t.TempDir(), mode+".json")
		var buf bytes.Buffer
		err := run([]string{
			"-mode", mode, "-nodes", "8", "-group", "2", "-relays", "1", "-copies", "2",
			"-rate", "4", "-horizon", "60", "-drain", "120", "-ict-min", "1", "-ict-max", "10",
			"-buffer", "4", "-reoffer", "3", "-seed", fmt.Sprint(seed), "-manifest", path,
		}, &buf, nil)
		if err != nil {
			t.Fatalf("%s run: %v\n%s", mode, err, buf.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obs.ValidateManifestBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, c := range m.Counters {
			if strings.HasPrefix(c.Name, "node.") {
				out[c.Name] = c.Value
			}
		}
		return out
	}
	for _, seed := range []uint64{1, 42} {
		sim, cl := counters(t, "sim", seed), counters(t, "cluster", seed)
		if sim["node.refusals"] == 0 || sim["node.backpressure_drops"] == 0 {
			t.Fatalf("seed %d: workload exerts no back-pressure: %v", seed, sim)
		}
		for name, want := range sim {
			if name == "node.wire_bytes" {
				continue
			}
			if got, ok := cl[name]; !ok || got != want {
				t.Errorf("seed %d: cluster %s = %d (present %v), sim %d", seed, name, got, ok, want)
			}
		}
	}
}
