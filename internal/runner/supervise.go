package runner

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TrialError identifies one failed trial: which batch and index it was,
// how it failed (panic, watchdog timeout, or a returned error), and how
// many attempts were made. It is the error an unsupervised batch
// returns for a panicking trial and the unit a supervisor quarantines.
type TrialError struct {
	Batch      string // batch label (scenario ID + series); empty in MapTrials
	Trial      int    // trial index within the batch
	Attempts   int    // attempts made before giving up
	TimedOut   bool   // the watchdog expired on every attempt
	PanicValue string // recovered panic value, when the trial panicked
	Stack      string // goroutine stack captured at the panic site
	Err        error  // underlying error for non-panic, non-timeout failures
}

// Error names the offending trial first, so the failure is identifiable
// even from a one-line log.
func (e *TrialError) Error() string {
	where := fmt.Sprintf("trial %d", e.Trial)
	if e.Batch != "" {
		where = fmt.Sprintf("trial %d of batch %q", e.Trial, e.Batch)
	}
	switch {
	case e.PanicValue != "":
		return fmt.Sprintf("%s panicked (attempt %d): %s\n%s", where, e.Attempts, e.PanicValue, e.Stack)
	case e.TimedOut:
		return fmt.Sprintf("%s exceeded the watchdog timeout on %d attempts", where, e.Attempts)
	default:
		return fmt.Sprintf("%s failed: %v", where, e.Err)
	}
}

// Unwrap exposes the underlying error, if any.
func (e *TrialError) Unwrap() error { return e.Err }

// QuarantineError reports a batch that completed its healthy trials but
// quarantined one or more panicking or hung ones. The batch's results
// are not usable; the quarantined trials are individually identified.
type QuarantineError struct {
	Batch  string
	Trials []*TrialError
}

// Error summarizes the quarantine, leading with the first offender.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("runner: batch %q: %d trial(s) quarantined; first: %v",
		e.Batch, len(e.Trials), e.Trials[0])
}

// Unwrap exposes the first quarantined trial.
func (e *QuarantineError) Unwrap() error { return e.Trials[0] }

// ErrInterrupted is returned (wrapped) by the supervised runner when a
// drain request stopped the batch before every trial ran. When the
// batch runs through a dispatcher over a result cache
// (internal/dispatch), completed trials are already persisted, so a
// rerun against the same cache picks up exactly where this one stopped.
var ErrInterrupted = errors.New("interrupted before all trials completed")

// Supervisor carries the run-wide supervision state shared by every
// batch of one command invocation: the per-trial watchdog timeout, the
// drain signal, and the quarantine record. The zero value is not
// usable; construct with NewSupervisor. A nil *Supervisor is valid
// everywhere and means "unsupervised".
type Supervisor struct {
	timeout time.Duration
	stop    chan struct{}
	once    sync.Once

	mu          sync.Mutex
	quarantined []*TrialError
}

// NewSupervisor returns a supervisor enforcing the given per-trial
// watchdog timeout (0 disables the watchdog).
func NewSupervisor(timeout time.Duration) *Supervisor {
	return &Supervisor{timeout: timeout, stop: make(chan struct{})}
}

// Stop requests a drain: workers finish their in-flight trials, stop
// claiming new ones, and every unfinished batch returns ErrInterrupted.
// Safe to call from any goroutine, any number of times.
func (s *Supervisor) Stop() { s.once.Do(func() { close(s.stop) }) }

// Stopping reports whether a drain has been requested. Always false
// for a nil supervisor.
func (s *Supervisor) Stopping() bool {
	if s == nil {
		return false
	}
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Quarantined returns every trial quarantined so far, in the order the
// failures were recorded.
func (s *Supervisor) Quarantined() []*TrialError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*TrialError(nil), s.quarantined...)
}

func (s *Supervisor) note(te *TrialError) {
	s.mu.Lock()
	s.quarantined = append(s.quarantined, te)
	s.mu.Unlock()
}

// Supervised is the worker pool every batch runs on. It runs trial(i)
// for every index under MapTrials' determinism and error contracts,
// labels errors with batch and, when a supervisor is attached, adds:
//
//   - panic isolation: a panicking trial is quarantined as a TrialError
//     (index, batch, stack) instead of failing the batch at once, and
//     the remaining trials still run;
//   - a per-trial watchdog: a trial exceeding the supervisor's timeout
//     is retried once (trials are deterministic in their index, so the
//     retry recomputes the identical result) and quarantined if the
//     retry hangs too — the abandoned attempt's goroutine can no longer
//     publish anything;
//   - drain: after Supervisor.Stop, workers finish in-flight trials and
//     the batch returns ErrInterrupted (wrapped, with progress counts).
//
// With a nil supervisor a panic fails the batch fast, exactly like a
// returned error, and nothing per trial is spent beyond the panic
// shield: no encoding, no locking, no extra goroutine.
func Supervised[T any](sup *Supervisor, batch string, workers, trials int, trial func(i int) (T, error)) ([]T, error) {
	return SupervisedRange(sup, batch, workers, 0, trials, trial)
}

// SupervisedRange is Supervised over the batch's trial indices
// [lo, hi): trial receives the batch index, every error and
// quarantined TrialError names it, and the result slice holds trial
// lo+k at position k. It lets a caller run one slice of a batch (a
// dispatch chunk) and still report failures by batch index.
func SupervisedRange[T any](sup *Supervisor, batch string, workers, lo, hi int, trial func(i int) (T, error)) ([]T, error) {
	trials := hi - lo
	if trials <= 0 {
		return nil, nil
	}
	workers = ResolveWorkers(workers, trials)

	// Per-batch instrumentation: wall-clock, offered worker capacity,
	// and summed per-trial busy time (their ratio is worker
	// utilization). Collection draws no RNG and does not touch the
	// trial results, so figures are byte-identical either way; when no
	// collector is installed the batch pays one atomic load and no
	// clock reads.
	c := obs.Active()
	if c != nil {
		batchStart := time.Now()
		c.Add(obs.ExpTrialBatches, 1)
		c.Add(obs.ExpTrials, int64(trials))
		c.Observe(obs.HistTrialBatchTrials, int64(trials))
		defer func() {
			wall := time.Since(batchStart)
			c.Add(obs.ExpBatchWallNanos, wall.Nanoseconds())
			c.Add(obs.ExpBatchCapacityNanos, wall.Nanoseconds()*int64(workers))
		}()
	}

	var (
		out        = make([]T, trials)
		errs       = make([]error, trials)
		completed  = make([]int, workers) // per worker, summed after the pool
		failed     atomic.Bool
		next       atomic.Int64
		qmu        sync.Mutex
		quarantine []*TrialError
	)
	worker := func() (n int) {
		for !failed.Load() && !sup.Stopping() {
			k := int(next.Add(1)) - 1
			if k >= trials {
				return n
			}
			v, err, te := attempt(sup, batch, lo+k, c, trial)
			if te != nil && sup != nil {
				qmu.Lock()
				quarantine = append(quarantine, te)
				qmu.Unlock()
				continue
			}
			if te != nil {
				err = te // unsupervised: a panic fails the batch fast
			}
			if err != nil {
				errs[k] = err
				failed.Store(true)
				return n
			}
			out[k] = v
			n++
		}
		return n
	}
	if workers == 1 {
		completed[0] = worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				completed[w] = worker()
			}(w)
		}
		wg.Wait()
	}

	if failed.Load() {
		for k, err := range errs {
			if err != nil {
				return nil, wrapTrialErr(batch, lo+k, err)
			}
		}
	}
	done := 0
	for _, n := range completed {
		done += n
	}
	if done+len(quarantine) < trials {
		return nil, fmt.Errorf("runner: batch %q: %d/%d trials complete: %w",
			batch, done, trials, ErrInterrupted)
	}
	if len(quarantine) > 0 {
		for _, te := range quarantine {
			sup.note(te)
		}
		return nil, &QuarantineError{Batch: batch, Trials: quarantine}
	}
	return out, nil
}

// wrapTrialErr prefixes a trial failure with the runner, batch and
// index. A *TrialError already names its own trial and batch, so it is
// not double-labeled.
func wrapTrialErr(batch string, i int, err error) error {
	var te *TrialError
	switch {
	case errors.As(err, &te):
		return fmt.Errorf("runner: %w", err)
	case batch == "":
		return fmt.Errorf("runner: trial %d: %w", i, err)
	default:
		return fmt.Errorf("runner: batch %q trial %d: %w", batch, i, err)
	}
}

// attempt runs one trial shielded from panics, under the supervisor's
// watchdog when one is set, granting one deterministic retry after a
// timeout. It returns either the trial's value/error or a quarantinable
// TrialError. Without a watchdog it is a single shielded call.
func attempt[T any](sup *Supervisor, batch string, i int, c *obs.Collector, trial func(i int) (T, error)) (T, error, *TrialError) {
	if sup == nil || sup.timeout <= 0 {
		return runRecover(batch, i, 1, c, trial)
	}
	for a := 1; ; a++ {
		v, err, te := runWatched(batch, i, a, sup.timeout, c, trial)
		if te == nil {
			return v, err, nil
		}
		if te.TimedOut && a == 1 {
			continue // one deterministic retry after a watchdog timeout
		}
		var zero T
		return zero, nil, te
	}
}

type attemptResult[T any] struct {
	v   T
	err error
	te  *TrialError
}

// runWatched executes one attempt with panic recovery under a
// watchdog. The attempt goroutine publishes only into its own buffered
// channel, so an abandoned (timed-out) attempt can never race a later
// retry on shared state.
func runWatched[T any](batch string, i, att int, timeout time.Duration, c *obs.Collector, trial func(i int) (T, error)) (T, error, *TrialError) {
	ch := make(chan attemptResult[T], 1)
	go func() {
		v, err, te := runRecover(batch, i, att, c, trial)
		ch <- attemptResult[T]{v: v, err: err, te: te}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err, r.te
	case <-timer.C:
		var zero T
		return zero, nil, &TrialError{Batch: batch, Trial: i, Attempts: att, TimedOut: true}
	}
}

// runRecover executes one attempt, converting a panic into a
// TrialError carrying the recovered value and stack.
func runRecover[T any](batch string, i, att int, c *obs.Collector, trial func(i int) (T, error)) (v T, err error, te *TrialError) {
	defer func() {
		if p := recover(); p != nil {
			te = &TrialError{
				Batch: batch, Trial: i, Attempts: att,
				PanicValue: fmt.Sprint(p), Stack: string(debug.Stack()),
			}
		}
	}()
	if c != nil {
		start := time.Now()
		defer func() { c.Add(obs.ExpTrialBusyNanos, time.Since(start).Nanoseconds()) }()
	}
	v, err = trial(i)
	return v, err, nil
}
