package resultcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/framelog"
)

// EntryInfo summarizes one cache entry for tooling: its identity from
// meta.json plus the record count recovered by scanning its log.
type EntryInfo struct {
	Meta
	Trials int // distinct (batch, trial) records in the log
}

// List scans a cache directory and returns a summary of every entry,
// sorted by spec ID then key. Subdirectories that are not hex sha256
// names are ignored (the cache root may be shared with other state);
// an entry with a malformed meta.json or an unreadable log is
// reported as an error, never skipped silently.
func List(dir string) ([]EntryInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: read cache dir %s: %w", dir, err)
	}
	var out []EntryInfo
	for _, e := range ents {
		if !e.IsDir() || !keyPattern.MatchString(e.Name()) {
			continue
		}
		info, err := describe(filepath.Join(dir, e.Name()), e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SpecID != out[j].SpecID {
			return out[i].SpecID < out[j].SpecID
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// describe builds the EntryInfo for one entry directory.
func describe(entry, key string) (EntryInfo, error) {
	var info EntryInfo
	data, err := os.ReadFile(filepath.Join(entry, metaFile))
	if err != nil {
		return EntryInfo{}, fmt.Errorf("resultcache: entry %s: %w", key, err)
	}
	if err := json.Unmarshal(data, &info.Meta); err != nil {
		return EntryInfo{}, fmt.Errorf("resultcache: entry %s: malformed %s: %w", key, metaFile, err)
	}
	if info.Key != key {
		return EntryInfo{}, fmt.Errorf("resultcache: entry %s: %s claims key %s", key, metaFile, info.Key)
	}
	path := filepath.Join(entry, logFile)
	data, err = os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return EntryInfo{}, fmt.Errorf("resultcache: read %s: %w", path, err)
	}
	if len(data) == 0 {
		return info, nil // created, nothing saved yet
	}
	_, off, err := framelog.DecodeHeader(data)
	if err != nil {
		return EntryInfo{}, fmt.Errorf("resultcache: %s: %w", path, err)
	}
	// A live holder may be mid-append: count the complete frames.
	records, _, derr := framelog.DecodeRecordsFrom(data, off)
	if derr != nil && !errors.Is(derr, framelog.ErrTruncated) {
		return EntryInfo{}, fmt.Errorf("resultcache: %s: %w", path, derr)
	}
	seen := make(map[recordKey]struct{}, len(records))
	for _, r := range records {
		seen[recordKey{r.Batch, r.Trial}] = struct{}{}
	}
	info.Trials = len(seen)
	return info, nil
}

// GC removes every entry whose meta.json spec ID is not accepted by
// keep, returning the removed entries' summaries. Entries the keep
// predicate accepts are untouched; unreadable entries abort the sweep
// before anything is deleted, so a corrupt cache is never half-pruned.
func GC(dir string, keep func(specID string) bool) ([]EntryInfo, error) {
	all, err := List(dir)
	if err != nil {
		return nil, err
	}
	var pruned []EntryInfo
	for _, info := range all {
		if keep(info.SpecID) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, info.Key)); err != nil {
			return pruned, fmt.Errorf("resultcache: prune entry %s: %w", info.Key, err)
		}
		pruned = append(pruned, info)
	}
	return pruned, nil
}
