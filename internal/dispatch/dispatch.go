// Package dispatch is the one entry point every Monte Carlo batch runs
// through. Without a store, Run is the plain supervised worker pool
// (internal/runner). With an open entry of the content-addressed result
// cache (internal/resultcache), the same pool looks each trial up
// before computing it and saves it right after, which is how runs
// survive interruption: a rerun against the same cache serves every
// persisted trial and computes only the rest. Trials are deterministic
// in their index (runner.Supervised contract), so a served record is
// bit-identical to the one a recomputation would produce, and the
// output is byte-identical with or without a cache.
//
// The commands that run batches (figures, sweep, dtnsim) share one
// copy of the run lifecycle around Run, in cli.go: AddFlags registers
// -trial-timeout and -cache; Flags.Start opens a Session, which owns
// the supervisor and the SIGINT/SIGTERM drain; Session.Open opens one
// cache entry (nil without -cache) and reports a resume;
// Session.Finish records quarantined trials in the manifest and adds
// the rerun hint to an interrupted -cache run's error.
package dispatch

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

// Run executes one batch of trials and returns the results in
// trial-index order. fn must be deterministic in its index. workers
// bounds the concurrency; sup (optional) provides the watchdog,
// quarantine and drain semantics of runner.Supervised.
//
// A nil store runs the batch on the plain runner.Supervised pool with
// no persistence. Otherwise each trial is served from the store when
// it holds one, or computed and saved there, so a drain or a kill
// loses at most the trials in flight.
func Run[T any](store *resultcache.Store, sup *runner.Supervisor, batch string, workers, trials int, fn func(i int) (T, error)) ([]T, error) {
	if store == nil {
		return runner.Supervised(sup, batch, workers, trials, fn)
	}
	var hits, misses atomic.Int64
	out, err := runner.Supervised(sup, batch, workers, trials, func(i int) (T, error) {
		if data, ok := store.Peek(batch, i); ok {
			hits.Add(1)
			return decodeResult[T](data)
		}
		v, err := fn(i)
		if err != nil {
			return v, err
		}
		data, err := encodeResult(v)
		if err != nil {
			return v, err
		}
		misses.Add(1)
		return v, store.Save(batch, i, data)
	})
	if c := obs.Active(); c != nil {
		c.Add(obs.CacheHits, hits.Load())
		c.Add(obs.CacheMisses, misses.Load())
		// experiment.trials counts trials computed: a hit passed
		// through the pool but executed nothing.
		c.Add(obs.ExpTrials, -hits.Load())
	}
	return out, err
}

// encodeResult serializes one trial result for the cache. Gob
// preserves float64 bit patterns exactly, so a decoded result is
// bit-identical to the computed one — the property the byte-identical
// resume and cache-reuse guarantees rest on.
func encodeResult[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("encode trial result: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeResult is the inverse of encodeResult.
func decodeResult[T any](data []byte) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return v, fmt.Errorf("decode trial result: %w", err)
	}
	return v, nil
}
