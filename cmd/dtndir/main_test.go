package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/promtest"
)

// TestCoordinatedReplay is the README's worked example as a test: the
// dtndir main in coordinate mode plus a fleet of daemons, all
// in-process, exchanging custody over real loopback TCP. The
// coordinator injects the workload, replays a shrunk conference trace,
// prints the summary, and shuts the fleet down cleanly.
func TestCoordinatedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP fleet")
	}
	const n = 5
	dirArgs := []string{
		"-n", "5", "-g", "2", "-seed", "11",
		"-coordinate", "-trace", "infocom",
		// The diurnal traces start at hour 9; replay the first hour of
		// conference mingling.
		"-from", "32400", "-horizon", "3600",
		"-msgs", "8", "-relays", "1", "-copies", "2",
		"-join-wait", "30s",
	}
	addrCh := make(chan string, 1)
	dirErr := make(chan error, 1)
	var dirOut bytes.Buffer
	go func() {
		dirErr <- run(dirArgs, &dirOut, func(addr string) { addrCh <- addr })
	}()
	var dirAddr string
	select {
	case dirAddr = <-addrCh:
	case err := <-dirErr:
		t.Fatalf("dtndir exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dtndir did not start serving")
	}

	daemons := make([]*cluster.Daemon, n)
	for id := 0; id < n; id++ {
		d, err := cluster.StartDaemon(cluster.DaemonConfig{ID: id, DirAddr: dirAddr})
		if err != nil {
			t.Fatalf("daemon %d: %v", id, err)
		}
		daemons[id] = d
		defer d.Kill()
	}

	select {
	case err := <-dirErr:
		if err != nil {
			t.Fatalf("dtndir: %v\noutput:\n%s", err, dirOut.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatal("coordinated replay did not finish")
	}
	// The coordinator's quit requests must have shut every daemon down.
	for id, d := range daemons {
		done := make(chan struct{})
		go func() { d.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %d did not exit after quit", id)
		}
	}

	out := dirOut.String()
	for _, want := range []string{"all 5 nodes registered", "injected 8 messages", "replayed", "delivered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "replayed 0 contacts") {
		t.Fatalf("replay window held no contacts:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "1"}, &out, nil); err == nil {
		t.Fatal("accepted a 1-node cluster")
	}
	if err := run([]string{"-n", "5", "-g", "9"}, &out, nil); err == nil {
		t.Fatal("accepted group size beyond population")
	}
	if err := run([]string{"-n", "5", "-g", "2", "-coordinate", "-trace", "/does/not/exist", "-join-wait", "1ms"}, &out, nil); err == nil {
		t.Fatal("accepted a missing trace file")
	}
}

// TestDirMetricsEndpoint: dtndir -metrics exposes directory activity
// (daemon registrations) as Prometheus series while coordinating.
func TestDirMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP fleet")
	}
	urlCh := make(chan string, 1)
	metricsReady = func(url string) { urlCh <- url }
	defer func() { metricsReady = nil }()

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run([]string{
			"-n", "3", "-g", "1", "-seed", "9", "-metrics", "127.0.0.1:0",
			"-coordinate", "-trace", "infocom", "-from", "32400", "-horizon", "1800",
			"-msgs", "4", "-relays", "1", "-copies", "2", "-join-wait", "30s",
		}, &out, func(addr string) { addrCh <- addr })
	}()
	var scrapeURL, dirAddr string
	select {
	case scrapeURL = <-urlCh:
	case err := <-errCh:
		t.Fatalf("dtndir exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}
	select {
	case dirAddr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("directory never started serving")
	}

	daemons := make([]*cluster.Daemon, 3)
	for id := 0; id < 3; id++ {
		d, err := cluster.StartDaemon(cluster.DaemonConfig{ID: id, DirAddr: dirAddr})
		if err != nil {
			t.Fatalf("daemon %d: %v", id, err)
		}
		daemons[id] = d
		defer d.Kill()
	}

	// All three registrations flow through the directory's collector.
	deadline := time.Now().Add(10 * time.Second)
	for {
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
		if v, ok := exp.Value("dtn_cluster_registrations_total"); ok && v >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registrations never reached 3 in scrape:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("dtndir failed: %v\n%s", err, out.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatal("coordinated replay did not finish")
	}
	if _, err := http.Get(scrapeURL); err == nil {
		t.Fatal("metrics endpoint still serving after dtndir exited")
	}
}
