package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/promtest"
)

// TestDaemonMainLifecycle runs three dtnnode mains against an
// in-process directory, fires one live contact between two of them via
// the control plane, and shuts the fleet down with quit requests —
// every main must exit cleanly and report its stats.
func TestDaemonMainLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP daemons")
	}
	dir, err := cluster.NewDir(cluster.DirConfig{Nodes: 3, GroupSize: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	const n = 3
	outs := make([]bytes.Buffer, n)
	errs := make(chan error, n)
	addrs := make([]chan string, n)
	for id := 0; id < n; id++ {
		addrs[id] = make(chan string, 1)
		go func(id int) {
			args := []string{"-id", strconv.Itoa(id), "-dir", dir.Addr()}
			errs <- run(args, &outs[id], func(addr string) { addrs[id] <- addr })
		}(id)
	}
	nodeAddr := make([]string, n)
	for id := 0; id < n; id++ {
		select {
		case nodeAddr[id] = <-addrs[id]:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %d did not come up", id)
		}
	}
	if got := dir.Members(); got != n {
		t.Fatalf("directory has %d members, want %d", got, n)
	}

	co := cluster.NewCoordinator(0)
	defer co.Close()
	msg := cluster.SyntheticWorkload(5, n, 1, 1, 1)[0]
	if err := co.Inject(nodeAddr[msg.Src], 5, msg); err != nil {
		t.Fatal(err)
	}
	if err := co.Contact(nodeAddr[msg.Src], msg.Dst, nodeAddr[msg.Dst], 1.0); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		if err := co.Quit(nodeAddr[id]); err != nil {
			t.Fatalf("quit daemon %d: %v", id, err)
		}
	}
	for id := 0; id < n; id++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("a dtnnode main failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a dtnnode main did not exit after quit")
		}
	}
	for id := 0; id < n; id++ {
		if !strings.Contains(outs[id].String(), "done: sent=") {
			t.Fatalf("daemon %d did not report stats:\n%s", id, outs[id].String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dir", "127.0.0.1:1"}, &out, nil); err == nil || !strings.Contains(err.Error(), "-id") {
		t.Fatalf("missing -id not rejected: %v", err)
	}
	if err := run([]string{"-id", "0"}, &out, nil); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("missing -dir not rejected: %v", err)
	}
	if err := run([]string{"-id", "0", "-dir", "127.0.0.1:1", "-timeout", "100ms", "-join-wait", "100ms"}, &out, nil); err == nil {
		t.Fatal("unreachable directory not surfaced")
	}
}

// TestNodeBeforeDirStartupOrder: the reverse-order regression. A
// dtnnode main launched before its dtndir directory exists must keep
// retrying within -join-wait and serve normally once the directory
// appears — fleet orchestration must not need startup sequencing.
func TestNodeBeforeDirStartupOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP daemons")
	}
	// Reserve the directory's address before the directory exists.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dirAddr := rsv.Addr().String()
	_ = rsv.Close()

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run([]string{
			"-id", "0", "-dir", dirAddr, "-join-wait", "10s",
		}, &out, func(addr string) { addrCh <- addr })
	}()

	// The node must still be retrying, not dead.
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-errCh:
		t.Fatalf("dtnnode gave up before the directory started: %v\n%s", err, out.String())
	default:
	}

	dir, err := cluster.NewDir(cluster.DirConfig{Nodes: 3, GroupSize: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Start(dirAddr); err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	var nodeAddr string
	select {
	case nodeAddr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("dtnnode exited instead of joining the late directory: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("dtnnode never joined the late-started directory")
	}
	if got := dir.Members(); got != 1 {
		t.Fatalf("directory has %d members, want 1", got)
	}
	co := cluster.NewCoordinator(0)
	defer co.Close()
	if err := co.Quit(nodeAddr); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("dtnnode failed after the reversed startup: %v\n%s", err, out.String())
	}
}

// TestMetricsEndpoint: a dtnnode run with -metrics serves well-formed
// Prometheus exposition reflecting its live cluster activity, and the
// endpoint goes down with the daemon.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP daemons")
	}
	dir, err := cluster.NewDir(cluster.DirConfig{Nodes: 3, GroupSize: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	urlCh := make(chan string, 1)
	metricsReady = func(url string) { urlCh <- url }
	defer func() { metricsReady = nil }()

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run([]string{
			"-id", "0", "-dir", dir.Addr(), "-metrics", "127.0.0.1:0",
		}, &out, func(addr string) { addrCh <- addr })
	}()
	var scrapeURL, nodeAddr string
	select {
	case scrapeURL = <-urlCh:
	case err := <-errCh:
		t.Fatalf("dtnnode exited before serving metrics: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}
	select {
	case nodeAddr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never registered")
	}

	resp, err := http.Get(scrapeURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := promtest.ParseExposition(body)
	if err != nil {
		t.Fatalf("scrape is not valid exposition: %v", err)
	}
	// Registering with the directory dialed at least once.
	if v, ok := exp.Value("dtn_cluster_dials_total"); !ok || v < 1 {
		t.Fatalf("dtn_cluster_dials_total = %v (ok=%v), want >= 1", v, ok)
	}

	co := cluster.NewCoordinator(0)
	defer co.Close()
	if err := co.Quit(nodeAddr); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("dtnnode failed: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dtnnode did not exit after quit")
	}
	if _, err := http.Get(scrapeURL); err == nil {
		t.Fatal("metrics endpoint still serving after the daemon exited")
	}
	if !strings.Contains(out.String(), "serving metrics at") {
		t.Fatalf("run did not announce the metrics endpoint:\n%s", out.String())
	}
}
