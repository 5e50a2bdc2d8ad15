// Package runner provides the deterministic bounded worker pool that
// every Monte Carlo loop in this repository runs on. It sits below the
// experiment and scenario layers (it imports only obs) so both can
// share one pool without an import cycle. It knows nothing about
// persistence: internal/dispatch layers the result cache on top.
package runner

import (
	"runtime"
)

// MapTrials runs trial(i) for every index in [0, trials) on a bounded
// pool of worker goroutines and returns the per-trial results in trial
// order. workers <= 0 means runtime.GOMAXPROCS(0). It is Supervised
// with no supervisor and no batch label.
//
// Determinism contract: trial must derive all of its randomness from
// its index (e.g. via rng.Stream.SplitN with the index as the stream
// label), never from shared mutable state, so that the result slice is
// bit-identical for every worker count and every completion order.
// Every Monte Carlo loop in the experiment and scenario packages runs
// on this pool, and the equivalence tests assert the resulting figures
// are byte-identical for workers in {1, 4, GOMAXPROCS}.
//
// Error contract: when one or more trials fail, the remaining workers
// stop claiming new trials promptly and the recorded failure with the
// lowest trial index is returned, wrapped with that index. A panic
// inside trial does not take the process down: it is recovered into a
// *TrialError naming the trial index and carrying the panic value and
// stack, and reported through the same error path. Which trials ran
// before cancellation is scheduling-dependent; the value results are
// only meaningful when the returned error is nil.
func MapTrials[T any](workers, trials int, trial func(i int) (T, error)) ([]T, error) {
	return Supervised(nil, "", workers, trials, trial)
}

// ResolveWorkers clamps a worker count to [1, trials], defaulting
// non-positive values to GOMAXPROCS.
func ResolveWorkers(workers, trials int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
