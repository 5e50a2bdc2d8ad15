// Package dispatch is the one entry point every Monte Carlo batch runs
// through. Without a Dispatcher, Run is the plain supervised worker
// pool (internal/runner). With one, it schedules the batch across a
// fleet of workers sharing a content-addressed result cache
// (internal/resultcache), which is also how runs survive interruption:
// a rerun against the same cache serves every persisted trial and
// computes only the rest. Workers may be goroutines of one process or
// separate processes on a shared directory — the protocol is the same:
//
//  1. A batch is split into fixed trial-index chunks.
//  2. A worker claims a chunk by creating its lease file exclusively
//     (a hard link, which fails if the file exists) in the cache
//     entry's lease directory — the filesystem arbitrates, exactly one
//     creator wins.
//  3. While computing, the holder heartbeats the lease (mtime bumps).
//     A lease whose mtime is older than the TTL belonged to a dead or
//     stalled worker; any other worker steals it by renaming the lease
//     file aside (rename is atomic, so exactly one stealer wins) and
//     re-claiming the chunk. A lease naming this worker's own Owner can
//     only be a dead predecessor's, so it is reclaimed at once.
//  4. Completed trials are appended to the worker's own cache shard;
//     everyone else picks them up by polling Refresh.
//  5. When every trial of the batch is in the cache, each worker
//     assembles the results in trial-index order.
//
// Correctness never rests on mutual exclusion: trials are
// deterministic in their index (runner.MapTrials contract), so if a
// steal races the original holder and both compute a chunk, they
// append bit-identical records and the cache index deduplicates them.
// Leases only prevent wasted duplicate work; the reduced output is
// byte-identical to a single-process run at any fleet size.
package dispatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

// Options tunes the dispatch protocol. The zero value of each field
// selects the default; results are invariant to every field.
type Options struct {
	// Owner names this worker's shard and leases (default "anon";
	// CLIs pass hostname-pid).
	Owner string
	// ChunkSize is the trial count per lease (default 32). Smaller
	// chunks spread better across a fleet; larger ones amortize lease
	// traffic.
	ChunkSize int
	// LeaseTTL is how stale a lease's mtime must be before another
	// worker steals it (default 30s). It bounds how long a dead
	// worker's chunk stays unclaimed.
	LeaseTTL time.Duration
	// Heartbeat is how often a holder refreshes its lease mtime
	// (default LeaseTTL/4).
	Heartbeat time.Duration
	// Poll is the wait between cache refreshes while another worker
	// holds the remaining chunks (default 150ms).
	Poll time.Duration
}

func (o Options) withDefaults() Options {
	if o.Owner == "" {
		o.Owner = "anon"
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 32
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 4
	}
	if o.Poll <= 0 {
		o.Poll = 150 * time.Millisecond
	}
	return o
}

// Dispatcher runs batches against one open cache entry. Create one per
// (spec, seed) cache entry and attach it to the scenario engine via
// Engine.Supervise.
type Dispatcher struct {
	store *resultcache.Store
	opt   Options
}

// New returns a dispatcher over an open cache entry.
func New(store *resultcache.Store, opt Options) *Dispatcher {
	return &Dispatcher{store: store, opt: opt.withDefaults()}
}

// Store returns the underlying cache entry.
func (d *Dispatcher) Store() *resultcache.Store { return d.store }

// chunk is one leaseable trial range [lo, hi).
type chunk struct {
	lo, hi int
	done   bool
}

// Run executes one batch of trials and returns the results in
// trial-index order. fn must be deterministic in its index. workers
// bounds this process's concurrency; sup (optional) provides the
// watchdog, quarantine and drain semantics of runner.Supervised.
//
// A nil d runs the batch on the plain runner.Supervised pool with no
// persistence. Otherwise the batch runs through the fleet protocol:
// every trial already in the cache is served, the rest are leased in
// chunks, computed and saved, and the assembled results are
// byte-identical to the nil-d run at any fleet size.
func Run[T any](d *Dispatcher, sup *runner.Supervisor, batch string, workers, trials int, fn func(i int) (T, error)) ([]T, error) {
	if d == nil {
		return runner.Supervised(sup, batch, workers, trials, fn)
	}
	if trials <= 0 {
		return nil, nil
	}
	chunks := make([]*chunk, 0, (trials+d.opt.ChunkSize-1)/d.opt.ChunkSize)
	for lo := 0; lo < trials; lo += d.opt.ChunkSize {
		hi := lo + d.opt.ChunkSize
		if hi > trials {
			hi = trials
		}
		chunks = append(chunks, &chunk{lo: lo, hi: hi})
	}

	c := obs.Active()
	var executed atomic.Int64 // trials this process computed (cache misses)
	remaining := len(chunks)
	for remaining > 0 {
		if sup.Stopping() {
			return nil, fmt.Errorf("dispatch: batch %q: %w", batch, runner.ErrInterrupted)
		}
		progressed := false
		for _, ch := range chunks {
			if ch.done {
				continue
			}
			if d.satisfied(batch, ch) {
				ch.done = true
				remaining--
				progressed = true
				continue
			}
			held, err := d.lease(batch, ch, c)
			if err != nil {
				return nil, fmt.Errorf("dispatch: batch %q chunk [%d,%d): %w", batch, ch.lo, ch.hi, err)
			}
			if !held {
				continue // another live worker owns it; revisit after Refresh
			}
			// A holder saves its records before releasing, so a lease
			// freed since the last scan may cover finished trials: pick
			// them up before computing (execute skips cached trials).
			if err := d.store.Refresh(); err != nil {
				d.release(batch, ch)
				return nil, fmt.Errorf("dispatch: batch %q: %w", batch, err)
			}
			err = execute(d, sup, batch, workers, ch, &executed, fn)
			d.release(batch, ch)
			if err != nil {
				return nil, err
			}
			ch.done = true
			remaining--
			progressed = true
		}
		if remaining == 0 {
			break
		}
		if !progressed {
			// Everything left is leased elsewhere: wait for peers'
			// appends (or for their leases to go stale) and rescan.
			if sup.Stopping() {
				return nil, fmt.Errorf("dispatch: batch %q: %w", batch, runner.ErrInterrupted)
			}
			time.Sleep(d.opt.Poll)
		}
		if err := d.store.Refresh(); err != nil {
			return nil, fmt.Errorf("dispatch: batch %q: %w", batch, err)
		}
	}

	out, err := assemble[T](d.store, batch, trials)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.Add(obs.CacheMisses, executed.Load())
		c.Add(obs.CacheHits, int64(trials)-executed.Load())
	}
	return out, nil
}

// satisfied reports whether every trial of the chunk is already in the
// cache index.
func (d *Dispatcher) satisfied(batch string, ch *chunk) bool {
	for i := ch.lo; i < ch.hi; i++ {
		if !d.store.Has(batch, i) {
			return false
		}
	}
	return true
}

// leasePath names the chunk's lease file. The batch label is hashed:
// it contains slashes, and hashing keeps distinct labels collision-free
// after any filename sanitization.
func (d *Dispatcher) leasePath(batch string, ch *chunk) string {
	sum := sha256.Sum256([]byte(batch))
	return filepath.Join(d.store.LeaseDir(), fmt.Sprintf("%x-%d.lease", sum[:8], ch.lo))
}

// lease tries to claim the chunk: first by creating the lease file
// exclusively, then — if the existing lease has outlived the TTL
// without a heartbeat — by atomically renaming it aside and re-trying.
// Exactly one worker can win each path; losing either race is not an
// error, just "someone else is on it".
func (d *Dispatcher) lease(batch string, ch *chunk, c *obs.Collector) (bool, error) {
	path := d.leasePath(batch, ch)
	for attempt := 0; attempt < 2; attempt++ {
		err := d.createLease(path)
		if err == nil {
			if c != nil {
				c.Add(obs.DispatchLeases, 1)
			}
			return true, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return false, fmt.Errorf("create lease: %w", err)
		}
		st, serr := os.Stat(path)
		if serr != nil {
			continue // holder released between our attempts; retry create
		}
		if time.Since(st.ModTime()) < d.opt.LeaseTTL && !d.ownLease(path) {
			return false, nil // live holder
		}
		// Stale — the holder died or stalled past the TTL — or our own:
		// this worker releases every lease before claiming the next, so
		// a lease naming its Owner was left by a killed predecessor
		// with the same name. Rename the lease aside — atomic, so
		// exactly one stealer proceeds — and loop back to create our own.
		aside := path + ".stale-" + resultcache.SanitizeOwner(d.opt.Owner)
		if rerr := os.Rename(path, aside); rerr != nil {
			return false, nil // another stealer won; treat as held
		}
		os.Remove(aside)
		if c != nil {
			c.Add(obs.DispatchSteals, 1)
		}
	}
	return false, nil
}

// createLease creates the lease file at path naming this worker, or
// fails with os.ErrExist when the chunk is already leased. The owner
// is written to a private file first and hard-linked into place
// (link(2) refuses an existing target, like O_EXCL), so a lease is
// never visible without its owner: a kill mid-create cannot leave an
// anonymous lease that only the TTL would clear.
func (d *Dispatcher) createLease(path string) error {
	tmp := path + ".new-" + resultcache.SanitizeOwner(d.opt.Owner)
	if err := os.WriteFile(tmp, []byte(d.opt.Owner+"\n"), 0o644); err != nil {
		return err
	}
	defer os.Remove(tmp)
	return os.Link(tmp, path)
}

// ownLease reports whether the lease file at path names this worker.
func (d *Dispatcher) ownLease(path string) bool {
	data, err := os.ReadFile(path)
	return err == nil && strings.TrimSpace(string(data)) == d.opt.Owner
}

// release removes the chunk's lease, but only if it still names this
// worker. A missing file, or one naming someone else, means a stealer
// claimed the chunk while we were computing (TTL shorter than the
// chunk) and the lease at this path is now the stealer's live claim —
// deleting it would invite a third worker to re-claim and
// triple-compute the chunk. Records are bit-identical either way, so
// the owner check only prevents wasted work, never corruption.
func (d *Dispatcher) release(batch string, ch *chunk) {
	path := d.leasePath(batch, ch)
	if d.ownLease(path) {
		os.Remove(path)
	}
}

// execute runs one claimed chunk on the supervised pool with a
// heartbeat keeping the lease fresh. Each trial is looked up in the
// cache before it is computed — a killed predecessor may have finished
// part of the chunk — and saved to this worker's shard right after, so
// a drain or a kill loses at most the trials in flight. (A free
// function because Go methods cannot take type parameters.)
func execute[T any](d *Dispatcher, sup *runner.Supervisor, batch string, workers int, ch *chunk, executed *atomic.Int64, fn func(i int) (T, error)) error {
	stop := d.heartbeat(batch, ch)
	defer stop()
	_, err := runner.SupervisedRange(sup, batch, workers, ch.lo, ch.hi, func(trial int) (struct{}, error) {
		if d.store.Has(batch, trial) {
			return struct{}{}, nil
		}
		v, err := fn(trial)
		if err != nil {
			return struct{}{}, err
		}
		data, err := EncodeResult(v)
		if err != nil {
			return struct{}{}, err
		}
		executed.Add(1)
		return struct{}{}, d.store.Save(batch, trial, data)
	})
	return err
}

// heartbeat bumps the lease mtime every Heartbeat until the returned
// stop function runs. Chtimes errors are ignored: the lease may have
// been stolen and removed, which only means duplicate work, never
// corruption.
func (d *Dispatcher) heartbeat(batch string, ch *chunk) (stop func()) {
	path := d.leasePath(batch, ch)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(d.opt.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				now := time.Now()
				_ = os.Chtimes(path, now, now)
			}
		}
	}()
	return func() { close(done) }
}

// assemble reads the completed batch out of the cache in trial-index
// order. Every trial must be present; a gap here is a protocol bug,
// not a recoverable condition.
func assemble[T any](store *resultcache.Store, batch string, trials int) ([]T, error) {
	out := make([]T, trials)
	for i := 0; i < trials; i++ {
		data, ok := store.Peek(batch, i)
		if !ok {
			return nil, fmt.Errorf("dispatch: batch %q: trial %d missing after all chunks completed", batch, i)
		}
		v, err := DecodeResult[T](data)
		if err != nil {
			return nil, fmt.Errorf("dispatch: batch %q trial %d: %w", batch, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// EncodeResult serializes one trial result for the cache. Gob
// preserves float64 bit patterns exactly, so a decoded result is
// bit-identical to the computed one — the property the byte-identical
// resume and cache-reuse guarantees rest on.
func EncodeResult[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("encode trial result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult[T any](data []byte) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return v, fmt.Errorf("decode trial result: %w", err)
	}
	return v, nil
}
