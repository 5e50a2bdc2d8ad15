package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/runner"
)

func contentKey(t *testing.T, salt string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(salt))
	return hex.EncodeToString(sum[:])
}

func openStore(t *testing.T, dir, salt, owner string) *resultcache.Store {
	t.Helper()
	s, err := resultcache.Open(dir, contentKey(t, salt), "spec", 1, owner)
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
	s := openStore(t, t.TempDir(), "cold", "w")
	d := New(s, Options{Owner: "w"})
	var calls atomic.Int64
	out, err := Run(d, nil, "batch", 2, 70, trialFn(&calls))
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
	s := openStore(t, dir, "warm", "w1")
	d := New(s, Options{Owner: "w1"})
	var calls atomic.Int64
	want, err := Run(d, nil, "batch", 2, 70, trialFn(&calls))
	if err != nil {
		t.Fatal(err)
	}

	// A second worker over the same entry must serve every trial from
	// the cache and never invoke the trial function.
	s2 := openStore(t, dir, "warm", "w2")
	d2 := New(s2, Options{Owner: "w2"})
	var calls2 atomic.Int64
	got, err := Run(d2, nil, "batch", 2, 70, trialFn(&calls2))
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

func TestRunOddTrialCountAndChunkBoundary(t *testing.T) {
	s := openStore(t, t.TempDir(), "odd", "w")
	d := New(s, Options{Owner: "w"})
	const trials = 2*chunkSize + 7
	out, err := Run(d, nil, "batch", 1, trials, func(i int) (int, error) { return i * i, nil })
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
	s := openStore(t, t.TempDir(), "zero", "w")
	d := New(s, Options{Owner: "w"})
	out, err := Run(d, nil, "batch", 1, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Run(0 trials) = %v, %v; want nil, nil", out, err)
	}
}

func TestRunPropagatesTrialError(t *testing.T) {
	s := openStore(t, t.TempDir(), "err", "w")
	d := New(s, Options{Owner: "w"})
	boom := errors.New("boom")
	_, err := Run(d, nil, "batch", 1, 70, func(i int) (int, error) {
		if i == 37 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want wrapped boom", err)
	}
}

// TestFailuresNameBatchIndex runs 70 trials in chunks of 32 with trial
// 38 panicking: with and without a dispatcher, supervised or not, the
// error and the quarantine record name trial 38 of the batch, not its
// index inside the chunk [32, 64).
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
				var d *Dispatcher
				if dispatched {
					d = New(openStore(t, t.TempDir(), "index", "w"), Options{Owner: "w"})
				}
				_, err := Run(d, sup, "batch", 2, 70, fn)
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
// the runner's label carries the batch index under a dispatcher too.
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
	d := New(openStore(t, t.TempDir(), "index-err", "w"), Options{Owner: "w"})
	_, derr := Run(d, nil, "batch", 1, 70, fn)
	if !errors.Is(derr, boom) || derr.Error() != err.Error() {
		t.Fatalf("dispatched err = %q; want %q", derr, err)
	}
}

func TestRunInterrupted(t *testing.T) {
	s := openStore(t, t.TempDir(), "drain", "w")
	d := New(s, Options{Owner: "w"})
	sup := runner.NewSupervisor(0)
	sup.Stop()
	_, err := Run(d, sup, "batch", 1, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("err = %v; want ErrInterrupted", err)
	}
}

// TestFleetConcurrentWorkers runs several dispatchers over the same
// entry concurrently and asserts everyone assembles the identical
// batch with no trial computed more than... once per worker at most —
// and, in aggregate, every trial at least once.
func TestFleetConcurrentWorkers(t *testing.T) {
	dir := t.TempDir()
	const trials = 8 * chunkSize
	const fleet = 4
	var wg sync.WaitGroup
	results := make([][]float64, fleet)
	errs := make([]error, fleet)
	var calls atomic.Int64
	for w := 0; w < fleet; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := fmt.Sprintf("w%d", w)
			s, err := resultcache.Open(dir, contentKey(t, "fleet"), "spec", 1, owner)
			if err != nil {
				errs[w] = err
				return
			}
			defer s.Close()
			d := New(s, Options{Owner: owner})
			results[w], errs[w] = Run(d, nil, "batch", 1, trials, trialFn(&calls))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < fleet; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d result %d = %v; worker 0 has %v", w, i, results[w][i], results[0][i])
			}
		}
	}
	if calls.Load() < trials {
		t.Fatalf("fleet computed %d trials in aggregate; want >= %d", calls.Load(), trials)
	}
}

// TestStaleLeaseStolen plants a lease whose mtime is far in the past —
// the signature of a SIGKILLed worker — and asserts a new worker
// steals it and completes the batch.
func TestStaleLeaseStolen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, "steal", "victim")
	d := New(s, Options{Owner: "victim", LeaseTTL: time.Hour})
	// Forge the dead worker's lease for chunk [0,8) of "batch".
	path := d.leasePath("batch", &chunk{lo: 0, hi: 8})
	if err := os.WriteFile(path, []byte("victim\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, "steal", "stealer")
	d2 := New(s2, Options{Owner: "stealer", LeaseTTL: time.Hour})
	out, err := Run(d2, nil, "batch", 1, 8, func(i int) (int, error) { return i + 100, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+100 {
			t.Fatalf("out[%d] = %d; want %d", i, v, i+100)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale lease still present after steal: %v", err)
	}
}

// TestReleaseSparesStolenLease pins release's owner check: after a
// TTL steal, the lease at the chunk's path belongs to the stealer, and
// the slow original holder's release must leave it in place — deleting
// it would let a third worker re-claim the chunk and triple-compute
// it. The holder's own lease is still removed.
func TestReleaseSparesStolenLease(t *testing.T) {
	s := openStore(t, t.TempDir(), "release", "holder")
	d := New(s, Options{Owner: "holder"})
	ch := &chunk{lo: 0, hi: 8}
	path := d.leasePath("batch", ch)

	if err := os.WriteFile(path, []byte("stealer\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.release("batch", ch)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("release deleted the stealer's live lease: %v", err)
	}

	if err := os.WriteFile(path, []byte("holder\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.release("batch", ch)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("release kept this worker's own lease: %v", err)
	}
}

// TestFreshLeaseBlocksThenServes asserts a live peer's lease is not
// stolen: the second worker waits until the holder's records appear.
func TestFreshLeaseBlocksThenServes(t *testing.T) {
	dir := t.TempDir()
	holder := openStore(t, dir, "block", "holder")
	dh := New(holder, Options{Owner: "holder", LeaseTTL: time.Hour})
	path := dh.leasePath("batch", &chunk{lo: 0, hi: 8})
	if err := os.WriteFile(path, []byte("holder\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The waiter polls; after a few polls the "holder" publishes its
	// results and releases, and the waiter assembles without ever
	// running a trial.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		for i := 0; i < 8; i++ {
			data, err := EncodeResult(i * 7)
			if err == nil {
				err = holder.Save("batch", i, data)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		os.Remove(path)
	}()

	waiter := openStore(t, dir, "block", "waiter")
	dw := New(waiter, Options{Owner: "waiter", LeaseTTL: time.Hour})
	var calls atomic.Int64
	out, err := Run(dw, nil, "batch", 1, 8, func(i int) (int, error) {
		calls.Add(1)
		return i * 7, nil
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("waiter executed %d trials behind a live lease; want 0", calls.Load())
	}
	for i, v := range out {
		if v != i*7 {
			t.Fatalf("out[%d] = %d; want %d", i, v, i*7)
		}
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
	s := openStore(t, t.TempDir(), "pin", "w")
	d := New(s, Options{Owner: "w"})
	got, err := Run(d, nil, "batch", 3, 70, fn)
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
// dispatcher runs the batch on the supervised pool, touching no disk.
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
// rerun computes only the missing trials — including the rest of the
// chunk the drain cut short — and its results are bit-identical to an
// uninterrupted run.
func TestResumeFromCacheIsIdentical(t *testing.T) {
	trial := func(i int) (float64, error) {
		// Irrational-ish values so bit-identity is a real check.
		return math.Sqrt(float64(i)+2) * math.Pi, nil
	}
	const trials, stopAt = 70, 40 // the drain cuts the chunk [32, 64) short
	golden, err := Run[float64](nil, nil, "resume", 1, trials, trial)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sup := runner.NewSupervisor(0)
	var ran atomic.Int64
	d := New(openStore(t, dir, "resume", "w"), Options{Owner: "w"})
	_, err = Run(d, sup, "resume", 1, trials, func(i int) (float64, error) {
		if ran.Add(1) == stopAt {
			sup.Stop()
		}
		return trial(i)
	})
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("first run: err = %v, want ErrInterrupted", err)
	}

	var executed atomic.Int64
	d2 := New(openStore(t, dir, "resume", "w"), Options{Owner: "w"})
	out, err := Run(d2, nil, "resume", 4, trials, func(i int) (float64, error) {
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
	s := openStore(t, t.TempDir(), "structs", "w")
	first, err := Run(New(s, Options{Owner: "w"}), nil, "structs", 2, 6, trial)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(New(s, Options{Owner: "w"}), nil, "structs", 2, 6,
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

// TestOwnLeaseReclaimedImmediately pins kill-then-rerun under a fixed
// worker name: a fresh lease naming this worker's own Owner can only
// be a killed predecessor's, so it is reclaimed at once instead of
// waiting out the TTL — while a fresh lease naming anyone else is
// still respected.
func TestOwnLeaseReclaimedImmediately(t *testing.T) {
	s := openStore(t, t.TempDir(), "own", "me")
	d := New(s, Options{Owner: "me", LeaseTTL: time.Hour})
	ch := &chunk{lo: 0, hi: 8}
	path := d.leasePath("batch", ch)

	if err := os.WriteFile(path, []byte("someone-else\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if held, err := d.lease("batch", ch, nil); err != nil || held {
		t.Fatalf("lease over a fresh foreign lease = %v, %v; want false, nil", held, err)
	}

	if err := os.WriteFile(path, []byte("me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if held, err := d.lease("batch", ch, nil); err != nil || !held {
		t.Fatalf("lease over a fresh own lease = %v, %v; want true, nil", held, err)
	}
	if !d.ownLease(path) {
		t.Fatal("reclaimed lease does not name this worker")
	}
	d.release("batch", ch)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("release kept the reclaimed lease: %v", err)
	}
}
