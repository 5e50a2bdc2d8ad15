package obs

import (
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndHistogramNamesComplete(t *testing.T) {
	for i := Counter(0); i < numCounters; i++ {
		if counterNames[i] == "" {
			t.Errorf("counter %d has no name", i)
		}
	}
	for i := Histogram(0); i < numHistograms; i++ {
		if histogramNames[i] == "" {
			t.Errorf("histogram %d has no name", i)
		}
	}
	seen := map[string]bool{}
	for _, n := range counterNames {
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

// TestBucketSemantics pins the histogram binning the Prometheus
// exporter freezes into scrape output: exact bucket-boundary values,
// negative observations, and the overflow bucket.
func TestBucketSemantics(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		// Negatives and zero all land in bucket 0.
		{math.MinInt64, 0}, {-5, 0}, {-1, 0}, {0, 0},
		// Regular buckets: bucket i holds [2^(i-1), 2^i).
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41},
		// Exact boundaries: a power of two opens the next bucket, the
		// value one below it closes the previous one.
		{(1 << 20) - 1, 20}, {1 << 20, 21}, {(1 << 20) + 1, 21},
		// Overflow bucket: everything >= 2^61 shares bucket 62.
		{(1 << 61) - 1, 61}, {1 << 61, 62}, {1 << 62, 62}, {math.MaxInt64, 62},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		if ub := bucketUpperBound(bucketIndex(c.v)); c.v > ub {
			t.Errorf("value %d above its bucket upper bound %d", c.v, ub)
		}
	}
	// The bounds and the binning must agree bucket by bucket: each
	// bucket's upper bound bins into that bucket, and the next value
	// into the next one.
	for i := 0; i < histBuckets; i++ {
		ub := bucketUpperBound(i)
		if got := bucketIndex(ub); got != i {
			t.Errorf("bucketIndex(bucketUpperBound(%d)=%d) = %d", i, ub, got)
		}
		if i < histBuckets-1 {
			if got := bucketIndex(ub + 1); got != i+1 {
				t.Errorf("bucketIndex(%d+1) = %d, want %d", ub, got, i+1)
			}
		}
	}
	if ub := bucketUpperBound(histBuckets - 1); ub != math.MaxInt64 {
		t.Errorf("overflow bucket upper bound = %d, want MaxInt64", ub)
	}
}

// TestObserveClampsNegatives: a negative observation counts in bucket 0
// and contributes zero to the sum, so sum and buckets stay mutually
// consistent — it is never silently dropped.
func TestObserveClampsNegatives(t *testing.T) {
	c := NewCollector()
	c.Observe(HistContactTransfers, -42)
	c.Observe(HistContactTransfers, -1)
	c.Observe(HistContactTransfers, 5)
	var snap HistogramSnapshot
	for _, h := range c.Histograms() {
		if h.Name == HistContactTransfers.String() {
			snap = h
		}
	}
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3 (negatives must not be dropped)", snap.Count)
	}
	if snap.Sum != 5 {
		t.Fatalf("sum = %d, want 5 (negatives clamp to 0)", snap.Sum)
	}
	if len(snap.Buckets) != 2 || snap.Buckets[0].Le != 0 || snap.Buckets[0].Count != 2 {
		t.Fatalf("buckets = %+v, want two negatives in bucket le=0", snap.Buckets)
	}
}

// TestDeterministicAggregation hammers one collector from many
// goroutines and checks the totals are the exact integer sums and
// maxes, independent of scheduling.
func TestDeterministicAggregation(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(NodeHandoffs, 3)
				c.RecordMax(NodeCustodyHighWater, int64(w*perWorker+i))
				c.Observe(HistContactTransfers, int64(i%7))
			}
		}()
	}
	wg.Wait()
	if got, want := c.Get(NodeHandoffs), int64(3*workers*perWorker); got != want {
		t.Errorf("NodeHandoffs = %d, want %d", got, want)
	}
	if got, want := c.Get(NodeCustodyHighWater), int64(workers*perWorker-1); got != want {
		t.Errorf("NodeCustodyHighWater = %d, want %d", got, want)
	}
	var histCount int64
	for _, h := range c.Histograms() {
		if h.Name == HistContactTransfers.String() {
			histCount = h.Count
		}
	}
	if want := int64(workers * perWorker); histCount != want {
		t.Errorf("histogram count = %d, want %d", histCount, want)
	}
}

func TestCountersSnapshotOrder(t *testing.T) {
	c := NewCollector()
	c.Add(ExpTrials, 7)
	snap := c.Counters()
	if len(snap) != int(numCounters) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap), numCounters)
	}
	for i, ct := range snap {
		if ct.Name != counterNames[i] {
			t.Errorf("counter %d is %q, want %q (declaration order must be preserved)", i, ct.Name, counterNames[i])
		}
	}
}

func TestPhasesAccumulateInFirstStartOrder(t *testing.T) {
	c := NewCollector()
	c.StartPhase("alpha")()
	end := c.StartPhase("beta")
	time.Sleep(time.Millisecond)
	end()
	c.StartPhase("alpha")()
	phases := c.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].Name != "alpha" || phases[0].Count != 2 {
		t.Errorf("phase 0 = %+v, want alpha count 2", phases[0])
	}
	if phases[1].Name != "beta" || phases[1].Count != 1 || phases[1].Seconds <= 0 {
		t.Errorf("phase 1 = %+v, want beta count 1 with positive duration", phases[1])
	}
}

// TestInstallActiveCurrent: Active is nil until a collector is
// installed, and a phase opened on the disabled (nil) collector is a
// harmless no-op, so cold paths need no guard.
func TestInstallActiveCurrent(t *testing.T) {
	if Active() != nil {
		t.Fatal("collector installed at test start")
	}
	Active().StartPhase("disabled")()
	c := NewCollector()
	Install(c)
	defer Install(nil)
	if Active() != c {
		t.Fatal("Active() did not return the installed collector")
	}
	Active().StartPhase("enabled")()
	if phases := c.Phases(); len(phases) != 1 || phases[0].Name != "enabled" {
		t.Fatalf("phases = %+v, want only the one opened while installed", phases)
	}
}

func TestManifestRoundTripAndValidate(t *testing.T) {
	c := NewCollector()
	c.Add(NodeContacts, 42)
	c.Observe(HistHandoffFrameBytes, 512)
	c.StartPhase("fig04")()
	m := BuildManifest(c, "figures", []string{"-fig", "fig04"}, time.Now().Add(-time.Second))
	m.Config = map[string]any{"runs": 60}
	m.Seed = 1
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	// A test binary carries no VCS stamp, so the revision comes from
	// git, and outside a checkout it is "unknown".
	want := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		want = strings.TrimSpace(string(out))
	}
	if m.GitRevision != want {
		t.Errorf("git revision %q, want %q", m.GitRevision, want)
	}
	if m.WallSeconds <= 0 {
		t.Errorf("wall seconds = %v, want > 0", m.WallSeconds)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ValidateManifestBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := parsed.Counter("node.contacts"); !ok || v != 42 {
		t.Errorf("node.contacts = %d (ok=%v), want 42", v, ok)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	c := NewCollector()
	m := BuildManifest(c, "figures", nil, time.Now())
	m.Command = ""
	if err := m.Validate(); err == nil {
		t.Error("missing command accepted")
	}
	m = BuildManifest(c, "figures", nil, time.Now())
	m.Counters = m.Counters[:3]
	if err := m.Validate(); err == nil {
		t.Error("truncated counter set accepted")
	}
	m = BuildManifest(c, "figures", nil, time.Now())
	m.Counters[0].Name = "bogus"
	if err := m.Validate(); err == nil {
		t.Error("renamed counter accepted")
	}
}

func TestRunFlagsLifecycle(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	rf := AddRunFlags(fs)
	manifest := filepath.Join(dir, "m.json")
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := fs.Parse([]string{"-manifest", manifest, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	run, err := rf.Begin("testcmd", []string{"-x"})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Abort()
	if Active() != run.collector {
		t.Fatal("Begin did not install the collector")
	}
	Active().Add(SimSyntheticContacts, 5)
	if err := run.Finish(map[string]int{"n": 100}, 7, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	if Active() != nil {
		t.Fatal("Finish did not uninstall the collector")
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ValidateManifestBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 7 || m.Workers != 4 || m.FaultRate != 0.1 {
		t.Errorf("scenario fields not recorded: %+v", m)
	}
	if v, _ := m.Counter("sim.contacts_synthetic"); v != 5 {
		t.Errorf("sim.contacts_synthetic = %d, want 5", v)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// BenchmarkDisabledGuard measures the hot-path cost when no collector
// is installed: one atomic load and a nil check, no allocations.
func BenchmarkDisabledGuard(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := Active(); c != nil {
			c.Add(NodeContacts, 1)
		}
	}
}

// BenchmarkNopSink measures the disabled path of a hot-path counter
// and histogram plus a cold-path phase; it must not allocate.
func BenchmarkNopSink(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledPath()
	}
}

// BenchmarkCollectorAdd measures the enabled-path counter cost.
func BenchmarkCollectorAdd(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(NodeContacts, 1)
	}
}

// disabledPath is every kind of obs call as instrumented code makes it:
// guarded counters and histograms, and an unguarded phase.
func disabledPath() {
	if c := Active(); c != nil {
		c.Add(NodeContacts, 1)
		c.RecordMax(NodeCustodyHighWater, 9)
		c.Observe(HistContactTransfers, 2)
	}
	Active().StartPhase("x")()
}

func TestNopAllocFree(t *testing.T) {
	Install(nil)
	allocs := testing.AllocsPerRun(1000, disabledPath)
	if allocs != 0 {
		t.Errorf("disabled obs path allocates %v per op, want 0", allocs)
	}
}
