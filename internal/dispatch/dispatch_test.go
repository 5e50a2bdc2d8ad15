package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

func contentKey(t *testing.T, salt string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(salt))
	return hex.EncodeToString(sum[:])
}

func openStore(t *testing.T, dir, salt string) *resultcache.Store {
	t.Helper()
	s, err := resultcache.Open(dir, contentKey(t, salt), "spec", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// trialFn returns a deterministic function of the trial index and
// counts its invocations.
func trialFn(calls *atomic.Int64) func(i int) (float64, error) {
	return func(i int) (float64, error) {
		calls.Add(1)
		return float64(i) * 1.5, nil
	}
}

func TestRunColdComputesAll(t *testing.T) {
	s := openStore(t, t.TempDir(), "cold")
	var calls atomic.Int64
	out, err := Run(s, nil, "batch", 2, 70, trialFn(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 70 {
		t.Fatalf("len(out) = %d; want 70", len(out))
	}
	for i, v := range out {
		if v != float64(i)*1.5 {
			t.Fatalf("out[%d] = %v; want %v", i, v, float64(i)*1.5)
		}
	}
	if calls.Load() != 70 {
		t.Fatalf("trial fn called %d times; want 70", calls.Load())
	}
}

func TestRunWarmComputesNothing(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, "warm")
	var calls atomic.Int64
	want, err := Run(s, nil, "batch", 2, 70, trialFn(&calls))
	if err != nil {
		t.Fatal(err)
	}

	// A rerun over the same entry must serve every trial from the
	// cache and never invoke the trial function.
	s.Close()
	s2 := openStore(t, dir, "warm")
	var calls2 atomic.Int64
	got, err := Run(s2, nil, "batch", 2, 70, trialFn(&calls2))
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("warm run executed %d trials; want 0", calls2.Load())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm result %d = %v; want %v", i, got[i], want[i])
		}
	}
}

// TestRunCountsHitsAndMisses pins the manifest counters of a partly
// cached batch: cache.hits and cache.misses split the batch, and
// experiment.trials counts only the trials computed.
func TestRunCountsHitsAndMisses(t *testing.T) {
	s := openStore(t, t.TempDir(), "counters")
	var calls atomic.Int64
	if _, err := Run(s, nil, "batch", 2, 30, trialFn(&calls)); err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	obs.Install(c)
	defer obs.Install(nil)
	if _, err := Run(s, nil, "batch", 2, 50, trialFn(&calls)); err != nil {
		t.Fatal(err)
	}
	hits, misses, trials := c.Get(obs.CacheHits), c.Get(obs.CacheMisses), c.Get(obs.ExpTrials)
	if hits != 30 || misses != 20 || trials != 20 {
		t.Fatalf("cache.hits %d, cache.misses %d, experiment.trials %d; want 30, 20, 20", hits, misses, trials)
	}
}

func TestRunOddTrialCountAndChunkBoundary(t *testing.T) {
	s := openStore(t, t.TempDir(), "odd")
	const trials = 71
	out, err := Run(s, nil, "batch", 1, trials, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d; want %d", i, v, i*i)
		}
	}
	if n := s.Loaded(); n != trials {
		t.Fatalf("store holds %d records; want %d", n, trials)
	}
}

func TestRunZeroTrials(t *testing.T) {
	s := openStore(t, t.TempDir(), "zero")
	out, err := Run(s, nil, "batch", 1, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Run(0 trials) = %v, %v; want nil, nil", out, err)
	}
}

func TestRunPropagatesTrialError(t *testing.T) {
	s := openStore(t, t.TempDir(), "err")
	boom := errors.New("boom")
	_, err := Run(s, nil, "batch", 1, 70, func(i int) (int, error) {
		if i == 37 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want wrapped boom", err)
	}
}

// TestFailuresNameBatchIndex runs 70 trials with trial 38 panicking:
// with and without a cache, supervised or not, the error and the
// quarantine record name trial 38 of the batch.
func TestFailuresNameBatchIndex(t *testing.T) {
	fn := func(i int) (int, error) {
		if i == 38 {
			panic("boom")
		}
		return i, nil
	}
	for _, supervised := range []bool{false, true} {
		for _, dispatched := range []bool{false, true} {
			t.Run(fmt.Sprintf("supervised=%v/dispatched=%v", supervised, dispatched), func(t *testing.T) {
				var sup *runner.Supervisor
				if supervised {
					sup = runner.NewSupervisor(0)
				}
				var s *resultcache.Store
				if dispatched {
					s = openStore(t, t.TempDir(), "index")
				}
				_, err := Run(s, sup, "batch", 2, 70, fn)
				var te *runner.TrialError
				if !errors.As(err, &te) || te.Trial != 38 {
					t.Fatalf("err = %v; want a TrialError for trial 38", err)
				}
				if want := `trial 38 of batch "batch" panicked`; !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %q; want it to contain %q", err, want)
				}
				if !supervised {
					return
				}
				var qe *runner.QuarantineError
				if !errors.As(err, &qe) || len(qe.Trials) != 1 {
					t.Fatalf("err = %v; want a QuarantineError with one trial", err)
				}
				if q := sup.Quarantined(); len(q) != 1 || q[0].Trial != 38 {
					t.Fatalf("supervisor quarantined %v; want trial 38 only", q)
				}
			})
		}
	}
}

// TestReturnedErrorNamesBatchIndex is the returned-error counterpart:
// the runner's label carries the batch index with a cache too.
func TestReturnedErrorNamesBatchIndex(t *testing.T) {
	boom := errors.New("boom")
	fn := func(i int) (int, error) {
		if i == 38 {
			return 0, boom
		}
		return i, nil
	}
	_, err := Run[int](nil, nil, "batch", 1, 70, fn)
	if !errors.Is(err, boom) {
		t.Fatalf("plain pool: err = %v; want wrapped boom", err)
	}
	s := openStore(t, t.TempDir(), "index-err")
	_, derr := Run(s, nil, "batch", 1, 70, fn)
	if !errors.Is(derr, boom) || derr.Error() != err.Error() {
		t.Fatalf("dispatched err = %q; want %q", derr, err)
	}
}

func TestRunInterrupted(t *testing.T) {
	s := openStore(t, t.TempDir(), "drain")
	sup := runner.NewSupervisor(0)
	sup.Stop()
	_, err := Run(s, sup, "batch", 1, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("err = %v; want ErrInterrupted", err)
	}
}

// TestByteIdenticalToSupervised is the determinism pin: the dispatch
// path must hand back results gob-identical to runner.Supervised.
func TestByteIdenticalToSupervised(t *testing.T) {
	fn := func(i int) (float64, error) { return 1.0 / float64(i+1), nil }
	want, err := runner.Supervised[float64](nil, "batch", 3, 70, fn)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, t.TempDir(), "pin")
	got, err := Run(s, nil, "batch", 3, 70, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if wb, gb := fmt.Sprintf("%x", want[i]), fmt.Sprintf("%x", got[i]); wb != gb {
			t.Fatalf("trial %d: dispatch %s != supervised %s", i, gb, wb)
		}
	}
}

// TestRunNilDispatcherIsPlainPool pins the unpersisted path: a nil
// store runs the batch on the supervised pool, touching no disk.
func TestRunNilDispatcherIsPlainPool(t *testing.T) {
	var calls atomic.Int64
	out, err := Run[float64](nil, nil, "batch", 3, 10, trialFn(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 {
		t.Fatalf("trial fn called %d times; want 10", calls.Load())
	}
	for i, v := range out {
		if v != float64(i)*1.5 {
			t.Fatalf("out[%d] = %v; want %v", i, v, float64(i)*1.5)
		}
	}
}

// TestResumeFromCacheIsIdentical interrupts a batch partway, then
// reruns it against the same cache entry at another worker count: the
// rerun computes only the missing trials and its results are
// bit-identical to an uninterrupted run.
func TestResumeFromCacheIsIdentical(t *testing.T) {
	trial := func(i int) (float64, error) {
		// Irrational-ish values so bit-identity is a real check.
		return math.Sqrt(float64(i)+2) * math.Pi, nil
	}
	const trials, stopAt = 70, 40
	golden, err := Run[float64](nil, nil, "resume", 1, trials, trial)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sup := runner.NewSupervisor(0)
	var ran atomic.Int64
	s := openStore(t, dir, "resume")
	_, err = Run(s, sup, "resume", 1, trials, func(i int) (float64, error) {
		if ran.Add(1) == stopAt {
			sup.Stop()
		}
		return trial(i)
	})
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("first run: err = %v, want ErrInterrupted", err)
	}

	var executed atomic.Int64
	s.Close()
	s2 := openStore(t, dir, "resume")
	out, err := Run(s2, nil, "resume", 4, trials, func(i int) (float64, error) {
		executed.Add(1)
		return trial(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != trials-stopAt {
		t.Fatalf("rerun executed %d trials, want %d (rest from the cache)", got, trials-stopAt)
	}
	for i := range golden {
		if math.Float64bits(out[i]) != math.Float64bits(golden[i]) {
			t.Fatalf("out[%d] = %x, golden = %x: resume not bit-identical",
				i, math.Float64bits(out[i]), math.Float64bits(golden[i]))
		}
	}
}

// TestStoreRoundTripsStructs pins that struct results — including NaN
// and Inf fields — come back from the cache bit-identical, and that a
// warm rerun never invokes the trial function.
func TestStoreRoundTripsStructs(t *testing.T) {
	type trialResult struct {
		Delivered bool
		Time      float64
		Model     []float64
	}
	trial := func(i int) (trialResult, error) {
		return trialResult{
			Delivered: i%2 == 0,
			Time:      math.Log1p(float64(i)),
			Model:     []float64{float64(i), math.NaN(), math.Inf(1)},
		}, nil
	}
	s := openStore(t, t.TempDir(), "structs")
	first, err := Run(s, nil, "structs", 2, 6, trial)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(s, nil, "structs", 2, 6,
		func(i int) (trialResult, error) {
			t.Errorf("trial %d executed despite a cache hit", i)
			return trialResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Delivered != second[i].Delivered ||
			math.Float64bits(first[i].Time) != math.Float64bits(second[i].Time) {
			t.Fatalf("trial %d scalar mismatch: %+v vs %+v", i, first[i], second[i])
		}
		for j := range first[i].Model {
			if math.Float64bits(first[i].Model[j]) != math.Float64bits(second[i].Model[j]) {
				t.Fatalf("trial %d model[%d] bits differ (NaN/Inf must round-trip)", i, j)
			}
		}
	}
}
