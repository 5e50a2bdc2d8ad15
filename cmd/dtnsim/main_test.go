package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestRunOnionScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "40", "-g", "4", "-k", "2", "-l", "2", "-runs", "50", "-deadline", "300"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"delivery rate", "transmissions", "traceable rate", "path anonymity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	for _, proto := range []string{"epidemic", "sprayandwait", "binaryspray", "prophet", "direct"} {
		var buf bytes.Buffer
		if err := run([]string{"-protocol", proto, "-n", "20", "-runs", "30", "-deadline", "200"}, &buf); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !strings.Contains(buf.String(), proto) {
			t.Fatalf("%s: output missing protocol name:\n%s", proto, buf.String())
		}
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "warpdrive"}, &buf); err == nil {
		t.Fatal("accepted unknown protocol")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

func TestEpidemicDeliversMoreThanDirect(t *testing.T) {
	var epi, dir bytes.Buffer
	if err := run([]string{"-protocol", "epidemic", "-n", "30", "-runs", "100", "-deadline", "100"}, &epi); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-protocol", "direct", "-n", "30", "-runs", "100", "-deadline", "100"}, &dir); err != nil {
		t.Fatal(err)
	}
	if extractRate(t, epi.String()) < extractRate(t, dir.String()) {
		t.Fatalf("epidemic below direct:\n%s\n%s", epi.String(), dir.String())
	}
}

func extractRate(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "delivery rate") {
			fields := strings.Fields(line)
			var v float64
			if _, err := fmt.Sscan(fields[len(fields)-1], &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no delivery rate in output:\n%s", out)
	return 0
}

func TestGraphSaveAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.graph"
	var first bytes.Buffer
	if err := run([]string{"-n", "25", "-runs", "40", "-deadline", "400", "-save-graph", path}, &first); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run([]string{"-graph", path, "-runs", "40", "-deadline", "400"}, &second); err != nil {
		t.Fatal(err)
	}
	// Same graph + same seed => identical scenario output.
	if extractRate(t, first.String()) != extractRate(t, second.String()) {
		t.Fatalf("loaded graph gave a different delivery rate:\n%s\n%s", first.String(), second.String())
	}
}

func TestTraceReplayMode(t *testing.T) {
	// Generate a small trace, then replay it.
	tr, err := trace.Generate(trace.DiurnalConfig{
		Nodes: 15, Days: 2, DayStartHour: 9, DayEndHour: 17,
		SessionMinutes: 480, MeanICT: 200, ContactSeconds: 30, PairProb: 1,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/t.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-g", "4", "-k", "2", "-runs", "30", "-deadline", "7200"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace") || !strings.Contains(buf.String(), "delivery rate") {
		t.Fatalf("trace output:\n%s", buf.String())
	}
	// Trace mode rejects baselines.
	if err := run([]string{"-trace", path, "-protocol", "epidemic"}, &buf); err == nil {
		t.Fatal("trace replay accepted a baseline protocol")
	}
}

func TestRuntimeMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "runtime", "-n", "25", "-runs", "15", "-l", "2", "-deadline", "400"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"runtime", "delivery rate", "peak buffered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime output missing %q:\n%s", want, out)
		}
	}
}

// TestOnionCacheResume pins dtnsim's crash-safety wiring: a -cache
// run reruns byte-identically against the same cache with every trial
// served from it (zero cache misses), and the manifest records the
// resume.
func TestOnionCacheResume(t *testing.T) {
	cache := t.TempDir()
	args := []string{
		"-n", "40", "-g", "4", "-k", "2", "-l", "2", "-runs", "30",
		"-deadline", "300", "-cache", cache, "-fleet-id", "w",
	}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	var warm bytes.Buffer
	if err := run(append(args, "-manifest", manifest), &warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), warm.Bytes()) {
		t.Fatalf("warm rerun report differs:\n%s\nvs\n%s", warm.String(), first.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	misses := int64(-1)
	for _, c := range m.Counters {
		if c.Name == "cache.misses" {
			misses = c.Value
		}
	}
	if misses != 0 {
		t.Fatalf("warm rerun cache.misses = %d; want 0", misses)
	}
	resumed := false
	for _, ev := range m.Events {
		resumed = resumed || ev.Kind == obs.EventResumed
	}
	if !resumed {
		t.Fatalf("manifest events lack the resume: %+v", m.Events)
	}
}

// TestOnionDigestSensitivity pins the content key's inputs: every
// outcome-affecting parameter — including the seed and the loaded
// graph's content hash — must change the key, while bookkeeping fields
// (cache path, fleet id, and notably the graph's *path*, whose content
// hash already covers it) must not.
func TestOnionDigestSensitivity(t *testing.T) {
	base := onionConfig{
		n: 40, g: 4, k: 2, l: 2, spray: true, deadline: 300,
		runs: 50, seed: 1, frac: 0.1,
	}
	affecting := map[string]func(*onionConfig){
		"n":        func(c *onionConfig) { c.n = 41 },
		"g":        func(c *onionConfig) { c.g = 5 },
		"k":        func(c *onionConfig) { c.k = 3 },
		"l":        func(c *onionConfig) { c.l = 3 },
		"spray":    func(c *onionConfig) { c.spray = false },
		"deadline": func(c *onionConfig) { c.deadline = 400 },
		"runs":     func(c *onionConfig) { c.runs = 51 },
		"seed":     func(c *onionConfig) { c.seed = 2 },
		"frac":     func(c *onionConfig) { c.frac = 0.2 },
		"faults":   func(c *onionConfig) { c.faults = 0.1 },
		"graphSum": func(c *onionConfig) { c.graphSum = "deadbeef" },
	}
	for name, mutate := range affecting {
		c := base
		mutate(&c)
		if c.contentKey() == base.contentKey() {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	c := base
	c.graphPath, c.saveGraph = "elsewhere.graph", "out.graph"
	c.cacheDir, c.fleetID = "cache", "host-1"
	if c.contentKey() != base.contentKey() {
		t.Error("bookkeeping fields changed the key")
	}
}

// cacheEntries counts content-key directories under a cache root.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if de.IsDir() {
			n++
		}
	}
	return n
}

// TestCacheDistinctSeedsDistinctEntries pins the fix for the seed/key
// collision: two -cache runs differing only in -seed must open two
// distinct cache entries. (The seed used to be omitted from the
// content key, so the second run collided with the first entry's
// directory and died with a key mismatch.)
func TestCacheDistinctSeedsDistinctEntries(t *testing.T) {
	cache := t.TempDir()
	for _, seed := range []string{"1", "2"} {
		args := []string{
			"-n", "30", "-runs", "20", "-deadline", "300",
			"-cache", cache, "-seed", seed,
		}
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
	}
	if n := cacheEntries(t, cache); n != 2 {
		t.Fatalf("cache holds %d entries for 2 seeds; want 2", n)
	}
}

// TestCacheGraphContentInvalidates pins the fix for path-keyed graph
// hashing: regenerating the graph file at the same path must yield a
// new cache entry, not silently serve trials computed on the old
// topology.
func TestCacheGraphContentInvalidates(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.graph")
	cache := filepath.Join(dir, "cache")
	for _, genSeed := range []string{"1", "7"} {
		gen := []string{
			"-n", "25", "-runs", "1", "-deadline", "300",
			"-seed", genSeed, "-save-graph", graph,
		}
		if err := run(gen, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		use := []string{
			"-graph", graph, "-runs", "20", "-deadline", "300",
			"-cache", cache,
		}
		if err := run(use, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheEntries(t, cache); n != 2 {
		t.Fatalf("cache holds %d entries for 2 graph contents at one path; want 2", n)
	}
}
