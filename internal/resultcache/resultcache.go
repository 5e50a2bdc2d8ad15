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
//   - Sharing. An entry is a shared directory written by a whole fleet:
//     every worker appends to its own shard log (single-writer, so
//     appends never interleave) and reads everyone's shards, which is
//     what the work-stealing dispatch layer (internal/dispatch) builds
//     on.
//
// # Layout
//
//	cachedir/
//	  <content-key>/            one entry per content hash (hex sha256)
//	    meta.json               spec id, key, seed, creation time (tooling)
//	    shard-<owner>.log       frame logs (internal/framelog), one per writer
//	    leases/                 dispatch lease files (transient)
//
// Shards are frame logs whose key frame carries the content sentinel
// in its revision slot, so torn-tail repair and corruption
// classification come from internal/framelog. Reading a shard that
// another live process is appending to is safe: a torn trailing frame
// is simply retried on the next Refresh.
package resultcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/framelog"
)

// ContentRevision is the sentinel stored in the key frame's revision
// slot of every cache shard. It marks the file as content-addressed —
// valid across git revisions.
const ContentRevision = "content-addressed"

// metaFile is the per-entry description written for tooling.
const metaFile = "meta.json"

// leaseSubdir holds the dispatch layer's transient lease files.
const leaseSubdir = "leases"

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

// ownerPattern restricts shard owner names to filename-safe bytes.
var ownerPattern = regexp.MustCompile(`[^0-9A-Za-z._-]`)

// SanitizeOwner maps an arbitrary owner string (hostname-pid, test
// names) to a filename-safe shard suffix.
func SanitizeOwner(owner string) string {
	if owner == "" {
		return "anon"
	}
	return ownerPattern.ReplaceAllString(owner, "-")
}

type recordKey struct {
	batch string
	trial int
}

// Store is one open cache entry: an append handle on this worker's own
// shard plus an in-memory index over every complete record of every
// shard read so far. Safe for concurrent use; Refresh picks up records
// appended by other workers since the last scan.
type Store struct {
	mu      sync.Mutex
	dir     string // entry directory
	key     framelog.Key
	own     *os.File
	ownPath string
	loaded  map[recordKey][]byte
	offsets map[string]int // per-shard resume offset for incremental Refresh
}

// Open opens (creating if needed) the cache entry for contentKey under
// dir, with this worker appending to shard-<owner>.log. specID and
// seed are recorded in the entry's meta.json for tooling; every shard
// in the entry must carry the same (ContentRevision, contentKey, seed)
// key or Open/Refresh fail loudly — a foreign shard means a content
// hash collision or a corrupted cache, never something to paper over.
func Open(dir, contentKey, specID string, seed uint64, owner string) (*Store, error) {
	if !keyPattern.MatchString(contentKey) {
		return nil, fmt.Errorf("resultcache: content key %q is not a hex sha256", contentKey)
	}
	entry := filepath.Join(dir, contentKey)
	if err := os.MkdirAll(filepath.Join(entry, leaseSubdir), 0o755); err != nil {
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
	key := framelog.Key{GitRevision: ContentRevision, SpecHash: contentKey, Seed: seed}
	s := &Store{
		dir:     entry,
		key:     key,
		ownPath: filepath.Join(entry, "shard-"+SanitizeOwner(owner)+".log"),
		loaded:  make(map[recordKey][]byte),
		offsets: make(map[string]int),
	}
	if err := s.openOwnShard(); err != nil {
		return nil, err
	}
	if err := s.Refresh(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openOwnShard creates this worker's shard, or reopens a leftover one
// from a previous process with the same owner name, repairing a torn
// tail by truncating to the last complete frame.
func (s *Store) openOwnShard() error {
	if _, err := os.Stat(s.ownPath); errors.Is(err, os.ErrNotExist) {
		hdr, err := framelog.HeaderBytes(s.key)
		if err != nil {
			return err
		}
		if err := atomicio.WriteFile(s.ownPath, hdr, 0o644); err != nil {
			return err
		}
	} else {
		data, err := os.ReadFile(s.ownPath)
		if err != nil {
			return fmt.Errorf("resultcache: read %s: %w", s.ownPath, err)
		}
		gotKey, off, err := framelog.DecodeHeader(data)
		if err != nil {
			return fmt.Errorf("resultcache: %s: %w", s.ownPath, err)
		}
		if gotKey != s.key {
			return fmt.Errorf("resultcache: %s: shard key %+v does not match entry key %+v: %w",
				s.ownPath, gotKey, s.key, framelog.ErrKeyMismatch)
		}
		_, validEnd, derr := framelog.DecodeRecordsFrom(data, off)
		if derr != nil {
			if !errors.Is(derr, framelog.ErrTruncated) {
				return fmt.Errorf("resultcache: %s: %w", s.ownPath, derr)
			}
			// Our own previous process died mid-append: repair the tail
			// before appending new frames after it.
			if err := os.Truncate(s.ownPath, int64(validEnd)); err != nil {
				return fmt.Errorf("resultcache: repair torn tail of %s: %w", s.ownPath, err)
			}
		}
	}
	f, err := os.OpenFile(s.ownPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultcache: open shard for append: %w", err)
	}
	s.own = f
	return nil
}

// Refresh scans every shard in the entry for records appended since
// the last scan (or ever, on the first call), merging them into the
// in-memory index. Records are bit-identical regardless of which
// worker computed them — the determinism contract — so duplicate
// (batch, trial) records from racing workers are harmless overwrites.
// A torn trailing frame in a shard another process is actively writing
// is not an error: the scan stops at the last complete frame and
// resumes from there next time.
//
// Only the tail past each shard's stored resume offset is read —
// Refresh is polled by every waiting dispatch worker, so I/O per poll
// must scale with new appends, not with total cache size.
func (s *Store) Refresh() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "shard-*.log"))
	if err != nil {
		return fmt.Errorf("resultcache: scan shards: %w", err)
	}
	sort.Strings(paths)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, path := range paths {
		if err := s.refreshShard(path); err != nil {
			return err
		}
	}
	return nil
}

// refreshShard merges one shard's newly appended records into the
// index. A shard seen before is read from its last valid frame
// boundary only (frames are self-delimiting, so decoding can start at
// any prior validEnd); an unseen shard is read in full so its key
// frame can be verified against the entry key.
func (s *Store) refreshShard(path string) error {
	base, seen := s.offsets[path]
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // pruned by GC between glob and open
		}
		return fmt.Errorf("resultcache: open %s: %w", path, err)
	}
	defer f.Close()
	if seen {
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("resultcache: stat %s: %w", path, err)
		}
		if st.Size() <= int64(base) {
			return nil // no appends since the last scan
		}
		if _, err := f.Seek(int64(base), io.SeekStart); err != nil {
			return fmt.Errorf("resultcache: seek %s: %w", path, err)
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("resultcache: read %s: %w", path, err)
	}
	off := 0
	if !seen {
		gotKey, hdrEnd, err := framelog.DecodeHeader(data)
		if err != nil {
			if errors.Is(err, framelog.ErrTruncated) {
				return nil // another process is mid-create; retry later
			}
			return fmt.Errorf("resultcache: %s: %w", path, err)
		}
		if gotKey != s.key {
			return fmt.Errorf("resultcache: %s: shard key %+v does not match entry key %+v: %w",
				path, gotKey, s.key, framelog.ErrKeyMismatch)
		}
		off = hdrEnd
	}
	records, validEnd, derr := framelog.DecodeRecordsFrom(data, off)
	if derr != nil && !errors.Is(derr, framelog.ErrTruncated) {
		return fmt.Errorf("resultcache: %s: %w", path, derr)
	}
	for _, r := range records {
		s.loaded[recordKey{r.Batch, r.Trial}] = r.Data
	}
	s.offsets[path] = base + validEnd
	return nil
}

// Peek returns the stored encoding of one trial, consulting only the
// in-memory index (call Refresh to pick up other workers' appends).
func (s *Store) Peek(batch string, trial int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.loaded[recordKey{batch, trial}]
	return data, ok
}

// Has reports whether the index holds the trial.
func (s *Store) Has(batch string, trial int) bool {
	_, ok := s.Peek(batch, trial)
	return ok
}

// Save durably appends one completed trial result to this worker's
// shard (a single write, so a SIGKILL tears at most the in-flight
// frame) and indexes it.
func (s *Store) Save(batch string, trial int, data []byte) error {
	frame, err := framelog.EncodeRecord(framelog.Record{Batch: batch, Trial: trial, Data: data})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		return errors.New("resultcache: store is closed")
	}
	if _, err := s.own.Write(frame); err != nil {
		return fmt.Errorf("resultcache: append record: %w", err)
	}
	s.loaded[recordKey{batch, trial}] = data
	return nil
}

// Loaded reports how many distinct (batch, trial) records the index
// currently holds.
func (s *Store) Loaded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loaded)
}

// LeaseDir returns the entry's lease directory for the dispatch layer.
func (s *Store) LeaseDir() string { return filepath.Join(s.dir, leaseSubdir) }

// Close releases the shard append handle. Safe to call more than once.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		return nil
	}
	err := s.own.Close()
	s.own = nil
	return err
}
