// Package resultcache is the content-addressed trial result store: a
// directory of cache entries, one per (spec content, effort options,
// seed) triple, each holding the gob encodings of completed Monte
// Carlo trials keyed by (batch, trial index). It is the one place trial
// results persist across process lifetimes: an interrupted or killed
// run resumes by rerunning against the same directory.
//
//   - Addressing. An entry is addressed by a sha256 content hash of the
//     spec's numerical inputs (base config, axis params and values,
//     measurement parameters, effort options, seed) — computed by the
//     caller, e.g. scenario.ContentKey — so unchanged (spec, seed,
//     trial) cells survive commits that do not touch them, and
//     regenerating every figure after a one-spec edit recomputes only
//     the edited spec.
//   - One writer. An open Store holds an exclusive flock(2) on its
//     entry's log for as long as it is open, so exactly one store —
//     in this process or any other — appends to an entry at a time. A
//     second Open of a held entry fails at once and names it. The
//     kernel drops the lock of a killed holder, so its rerun takes the
//     entry at once.
//
// # Layout
//
//	cachedir/
//	  <content-key>/            one entry per content hash (hex sha256)
//	    meta.json               spec id, key, seed, creation time (tooling)
//	    trials.log              the entry's frame log (internal/framelog)
//
// The log's key frame carries the content sentinel in its revision
// slot, so torn-tail repair and corruption classification come from
// internal/framelog. Any other file in an entry, such as the
// shard-*.log files of older builds, is never read: a cache only saves
// recomputation, and results are byte-identical either way.
package resultcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/framelog"
)

// ContentRevision is the sentinel stored in the key frame's revision
// slot of every entry log. It marks the file as content-addressed —
// valid across git revisions.
const ContentRevision = "content-addressed"

const (
	// metaFile is the per-entry description written for tooling.
	metaFile = "meta.json"
	// logFile is the entry's frame log.
	logFile = "trials.log"
)

// Meta describes one cache entry for tooling (obscheck -cache listing
// and garbage collection). It never influences results.
type Meta struct {
	SpecID  string    `json:"specId"`
	Key     string    `json:"key"`
	Seed    uint64    `json:"seed"`
	Created time.Time `json:"created"`
}

// keyPattern is the shape of a content key directory name: a full hex
// sha256. Anything else under the cache root is ignored by tooling.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

type recordKey struct {
	batch string
	trial int
}

// Store is one open cache entry: the locked append handle on its log
// plus an in-memory index of every record in it. Safe for concurrent
// use by the goroutines of one batch.
type Store struct {
	mu     sync.Mutex
	log    *os.File
	loaded map[recordKey][]byte
}

// Open opens (creating if needed) the cache entry for contentKey under
// dir and takes its lock. specID and seed are recorded in the entry's
// meta.json for tooling. An entry another open Store holds fails at
// once with an error naming it. A log whose key is not
// (ContentRevision, contentKey, seed) fails with ErrKeyMismatch — a
// foreign log means a content hash collision or a corrupted cache,
// never something to paper over. A torn trailing frame, left by a
// killed holder, is truncated away.
func Open(dir, contentKey, specID string, seed uint64) (*Store, error) {
	if !keyPattern.MatchString(contentKey) {
		return nil, fmt.Errorf("resultcache: content key %q is not a hex sha256", contentKey)
	}
	entry := filepath.Join(dir, contentKey)
	if err := os.MkdirAll(entry, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: create entry %s: %w", entry, err)
	}
	if _, err := os.Stat(filepath.Join(entry, metaFile)); errors.Is(err, os.ErrNotExist) {
		meta := Meta{SpecID: specID, Key: contentKey, Seed: seed, Created: time.Now().UTC()}
		data, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("resultcache: marshal meta: %w", err)
		}
		if err := atomicio.WriteFile(filepath.Join(entry, metaFile), append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(entry, logFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: open %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("resultcache: cache entry %s (%s) is in use by another run", contentKey, specID)
		}
		return nil, fmt.Errorf("resultcache: lock %s: %w", path, err)
	}
	s := &Store{log: f, loaded: make(map[recordKey][]byte)}
	key := framelog.Key{GitRevision: ContentRevision, SpecHash: contentKey, Seed: seed}
	if err := s.load(path, key); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// load indexes the locked log's records. A log that is empty, or holds
// only a prefix of the header (its creator was killed before the
// header landed), gets the header written; a torn trailing frame is
// truncated to the last complete one before anything is appended.
func (s *Store) load(path string, key framelog.Key) error {
	hdr, err := framelog.HeaderBytes(key)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(s.log)
	if err != nil {
		return fmt.Errorf("resultcache: read %s: %w", path, err)
	}
	if len(data) < len(hdr) && bytes.HasPrefix(hdr, data) {
		if err := s.log.Truncate(0); err != nil {
			return fmt.Errorf("resultcache: reset %s: %w", path, err)
		}
		if _, err := s.log.Write(hdr); err != nil {
			return fmt.Errorf("resultcache: write header of %s: %w", path, err)
		}
		return nil
	}
	gotKey, off, err := framelog.DecodeHeader(data)
	if err != nil {
		return fmt.Errorf("resultcache: %s: %w", path, err)
	}
	if gotKey != key {
		return fmt.Errorf("resultcache: %s: log key %+v does not match entry key %+v: %w",
			path, gotKey, key, framelog.ErrKeyMismatch)
	}
	records, validEnd, err := framelog.DecodeRecordsFrom(data, off)
	if err != nil {
		if !errors.Is(err, framelog.ErrTruncated) {
			return fmt.Errorf("resultcache: %s: %w", path, err)
		}
		if err := s.log.Truncate(int64(validEnd)); err != nil {
			return fmt.Errorf("resultcache: repair torn tail of %s: %w", path, err)
		}
	}
	for _, r := range records {
		s.loaded[recordKey{r.Batch, r.Trial}] = r.Data
	}
	return nil
}

// Peek returns the stored encoding of one trial.
func (s *Store) Peek(batch string, trial int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.loaded[recordKey{batch, trial}]
	return data, ok
}

// Save durably appends one completed trial result to the log (a single
// write, so a SIGKILL tears at most the in-flight frame) and indexes
// it.
func (s *Store) Save(batch string, trial int, data []byte) error {
	frame, err := framelog.EncodeRecord(framelog.Record{Batch: batch, Trial: trial, Data: data})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errors.New("resultcache: store is closed")
	}
	if _, err := s.log.Write(frame); err != nil {
		return fmt.Errorf("resultcache: append record: %w", err)
	}
	s.loaded[recordKey{batch, trial}] = data
	return nil
}

// Loaded reports how many distinct (batch, trial) records the index
// holds.
func (s *Store) Loaded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loaded)
}

// Close releases the log and its lock. Safe to call more than once,
// and on a nil Store (a run without a cache).
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
