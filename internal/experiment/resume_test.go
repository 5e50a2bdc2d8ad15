package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/framelog"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func resumeOptions(seed uint64, workers int) Options {
	return Options{Seed: seed, Runs: 12, SecurityRuns: 40, TraceRuns: 4, Workers: workers}
}

// runThroughCache evaluates spec with a supervisor and a dispatcher
// over the cache entry in dir, appending to shard-<owner>.log, and
// returns the figure JSON.
func runThroughCache(t *testing.T, spec scenario.Scenario, opt Options, dir, owner string) []byte {
	t.Helper()
	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultcache.Open(dir, key, spec.ID, opt.Seed, owner)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := scenario.NewEngine(opt)
	eng.Supervise(runner.NewSupervisor(0), dispatch.New(store, dispatch.Options{Owner: owner}))
	fig, err := eng.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// shardRecords decodes a shard strictly, returning its header length
// and records.
func shardRecords(t *testing.T, data []byte) (int, []framelog.Record) {
	t.Helper()
	_, hdrEnd, err := framelog.DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := framelog.DecodeRecordsFrom(data, hdrEnd)
	if err != nil {
		t.Fatal(err)
	}
	return hdrEnd, records
}

// TestResumeByteIdenticalAcrossRegistry is the resume determinism
// contract over every figure and ablation spec, at seeds {1, 42} and
// workers {1, 4}: a run through the result cache whose shard is then
// cut at a seeded offset inside a frame — the tear a SIGKILL leaves —
// reruns at a different worker count into a figure byte-identical to
// the cacheless golden, recomputing exactly the trials past the
// surviving prefix. Trial results are index-labeled, so the cached set
// plus the freshly computed remainder is the set an uninterrupted run
// computes, wherever the cut landed.
func TestResumeByteIdenticalAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every spec eight times")
	}
	specs := append(FigureSpecs(), AblationSpecs()...)
	for i := range specs {
		spec := specs[i]
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 42} {
				// The golden and the cold cached run use 2 workers, so
				// every rerun below runs at a different count.
				opt := resumeOptions(seed, 2)
				golden, err := scenario.NewEngine(opt).Run(&spec)
				if err != nil {
					t.Fatal(err)
				}
				goldenJSON, err := golden.JSON()
				if err != nil {
					t.Fatal(err)
				}
				key, err := scenario.ContentKey(&spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if js := runThroughCache(t, spec, opt, dir, "w"); !bytes.Equal(js, goldenJSON) {
					t.Fatal("cold cached run differs from the cacheless golden")
				}
				shard, err := os.ReadFile(filepath.Join(dir, key, "shard-w.log"))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("seed%d-workers%d", seed, workers), func(t *testing.T) {
						cutAndRerun(t, spec, resumeOptions(seed, workers), key, shard, goldenJSON)
					})
				}
			}
		})
	}
}

// cutAndRerun is one cell of TestResumeByteIdenticalAcrossRegistry: it
// plants shard, cut at a seeded offset inside a record frame, as the
// cache entry for key, and reruns at opt.
func cutAndRerun(t *testing.T, spec scenario.Scenario, opt Options, key string, shard []byte, goldenJSON []byte) {
	hdrEnd, all := shardRecords(t, shard)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", spec.ID, opt.Seed, opt.Workers)
	rnd := rand.New(rand.NewSource(int64(h.Sum64())))
	cut := hdrEnd + 1 + rnd.Intn(len(shard)-hdrEnd-1)
	survivors, validEnd, err := framelog.DecodeRecordsFrom(shard[:cut], hdrEnd)
	if err == nil && validEnd == cut {
		// On a frame boundary: move one byte into the next frame.
		cut++
		survivors, _, err = framelog.DecodeRecordsFrom(shard[:cut], hdrEnd)
	}
	if !errors.Is(err, framelog.ErrTruncated) {
		t.Fatalf("cut at byte %d of %d is not a torn frame: %v", cut, len(shard), err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, key, "shard-w.log")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, shard[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	// Rerun as the same worker, so Open repairs the torn tail.
	if js := runThroughCache(t, spec, opt, dir, "w"); !bytes.Equal(js, goldenJSON) {
		t.Fatalf("rerun after a cut at byte %d differs from the cacheless golden", cut)
	}
	// Every trial the rerun computed (a cache miss) is appended to the
	// shard, so the appended count is the rerun's miss count.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, after := shardRecords(t, data)
	if misses, want := len(after)-len(survivors), len(all)-len(survivors); misses != want {
		t.Fatalf("rerun computed %d trials; want the %d past the %d-record surviving prefix",
			misses, want, len(survivors))
	}
}

// TestSupervisedUninterruptedMatchesPlain pins that merely attaching
// the supervision and cache layers (no interruption, no cache hits)
// does not change output: the supervised engine's figure is
// byte-identical to the plain engine's.
func TestSupervisedUninterruptedMatchesPlain(t *testing.T) {
	opt := resumeOptions(42, 2)
	spec := FigureSpecs()[0]
	plain, err := scenario.NewEngine(opt).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, runThroughCache(t, spec, opt, t.TempDir(), "w")) {
		t.Fatal("supervised engine changed output with no interruption")
	}
}

// TestQuarantineSurfacesThroughEngine pins the end-to-end quarantine
// path: a spec with a trial that panics yields a QuarantineError
// naming the batch and trial, the healthy trials still run, and the
// supervisor records the failure for the manifest.
func TestQuarantineSurfacesThroughEngine(t *testing.T) {
	var ran int64
	scenario.RegisterCustom("test-panicking", func(e *scenario.Engine, s *scenario.Scenario) ([]stats.Series, []string, error) {
		_, err := scenario.Trials(e, s.ID+"/panicky", 8, func(i int) (float64, error) {
			atomic.AddInt64(&ran, 1)
			if i == 4 {
				panic("injected trial failure")
			}
			return float64(i), nil
		})
		if err != nil {
			return nil, nil, err
		}
		return []stats.Series{{Name: "x", X: []float64{0}, Y: []float64{0}, CI: []float64{0}}}, nil, nil
	})
	spec := scenario.Scenario{
		ID: "quarantine-e2e", Title: "t", XLabel: "x", YLabel: "y",
		Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "test-panicking"},
	}
	sup := runner.NewSupervisor(0)
	eng := scenario.NewEngine(resumeOptions(1, 2))
	eng.Supervise(sup, nil)
	_, err := eng.Run(&spec)
	var qe *runner.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	te := qe.Trials[0]
	if te.Trial != 4 || te.Batch != "quarantine-e2e/panicky" {
		t.Fatalf("quarantined = %+v, want trial 4 of quarantine-e2e/panicky", te)
	}
	if got := atomic.LoadInt64(&ran); got != 8 {
		t.Fatalf("%d trials ran, want all 8 despite the panic", got)
	}
	if q := sup.Quarantined(); len(q) != 1 {
		t.Fatalf("supervisor recorded %d quarantines, want 1", len(q))
	}
}
