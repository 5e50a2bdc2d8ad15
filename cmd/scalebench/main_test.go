package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseNodeCounts(t *testing.T) {
	ns, err := parseNodeCounts("1000, 10000,100000")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || ns[0] != 1000 || ns[2] != 100000 {
		t.Fatalf("parsed %v", ns)
	}
	for _, bad := range []string{"", "0", "abc", "10,1"} {
		if _, err := parseNodeCounts(bad); err == nil {
			t.Errorf("parseNodeCounts(%q): want error", bad)
		}
	}
}

func TestBenchHorizonClamps(t *testing.T) {
	if h := benchHorizon(1000); h != 86400 {
		t.Errorf("n=1e3: horizon %v, want 86400", h)
	}
	if h := benchHorizon(10000); h != 86400 {
		t.Errorf("n=1e4: horizon %v, want 86400", h)
	}
	if h := benchHorizon(100000); h != 8640 {
		t.Errorf("n=1e5: horizon %v, want 8640", h)
	}
	if h := benchHorizon(1000000); h != 3600 {
		t.Errorf("n=1e6: horizon %v, want 3600 floor", h)
	}
}

// TestRunSmall exercises the full pipeline — generation, rate fit,
// replay, JSON report — at a small N so it stays fast.
func TestRunSmall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var buf bytes.Buffer
	if err := run([]string{"-n", "400", "-reps", "1", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Nodes != 400 || r.Contacts == 0 {
		t.Fatalf("result %+v", r)
	}
	if r.LadderEvtsSec <= 0 {
		t.Fatalf("missing throughput: %+v", r)
	}
	if r.BytesPerNode <= 0 {
		t.Fatalf("missing bytes/node: %+v", r)
	}
}

// TestGateImpossible: the ladder-vs-heap gate moved into internal/des
// (TestLadderVsHeapReplayThroughput), so -gate is no longer a flag. An
// old gated invocation must fail at parse time rather than run
// ungated and pass.
func TestGateImpossible(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "300", "-reps", "1", "-gate", "1000"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -gate") {
		t.Fatalf("-gate accepted or failed for another reason: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected run still wrote a report: %q", buf.String())
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "nope"}, &buf); err == nil {
		t.Fatal("accepted bad -n")
	}
	if err := run([]string{"-n", "300", "-reps", "0"}, &buf); err == nil {
		t.Fatal("accepted -reps 0")
	}
}
