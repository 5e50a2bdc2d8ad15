package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/framelog"
)

func testKey(t *testing.T, salt string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(salt))
	return hex.EncodeToString(sum[:])
}

func TestOpenRejectsBadKey(t *testing.T) {
	if _, err := Open(t.TempDir(), "not-a-hash", "spec", 1); err == nil {
		t.Fatal("Open accepted a non-sha256 content key")
	}
}

func TestRoundtripAndReopen(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "roundtrip")
	s, err := Open(dir, key, "fig-1", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("fig-1/delivery/s0", 0, []byte("r0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("fig-1/delivery/s0", 3, []byte("r3")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Peek("fig-1/delivery/s0", 3); !ok || string(got) != "r3" {
		t.Fatalf("Peek = %q, %v; want r3, true", got, ok)
	}
	if _, ok := s.Peek("fig-1/delivery/s0", 1); ok {
		t.Fatal("Peek reported an unsaved trial")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process resumes the same log.
	s2, err := Open(dir, key, "fig-1", 42)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != 2 {
		t.Fatalf("Loaded = %d after reopen; want 2", s2.Loaded())
	}
	if got, ok := s2.Peek("fig-1/delivery/s0", 0); !ok || string(got) != "r0" {
		t.Fatalf("Peek after reopen = %q, %v; want r0, true", got, ok)
	}
}

func TestReopenRepairsOwnTornTail(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "self-repair")
	s, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("batch", 0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, key, logFile)
	if f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte{9, 0, 0, 0}) // half a frame header, as a killed holder leaves
		f.Close()
	}

	s2, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	if _, ok := s2.Peek("batch", 0); !ok {
		t.Fatal("repair lost the complete record")
	}
	if err := s2.Save("batch", 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// The file must be fully valid again.
	s3, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Loaded() != 2 {
		t.Fatalf("after repair+append, Loaded = %d; want 2", s3.Loaded())
	}
}

// TestTornHeaderRewritten: a log holding only a prefix of its header —
// its creator was killed before the header landed — is reset and
// written afresh, not rejected.
func TestTornHeaderRewritten(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "torn-header")
	hdr, err := framelog.HeaderBytes(framelog.Key{GitRevision: ContentRevision, SpecHash: key, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, key), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key, logFile), hdr[:len(hdr)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatalf("open over a torn header: %v", err)
	}
	if err := s.Save("b", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, key, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, off, err := framelog.DecodeHeader(data); err != nil {
		t.Fatal(err)
	} else if recs, _, err := framelog.DecodeRecordsFrom(data, off); err != nil || len(recs) != 1 {
		t.Fatalf("rewritten log holds %d records (err %v); want 1", len(recs), err)
	}
}

// TestOpenHeldEntryFails pins the one-writer rule: while a Store holds
// an entry, a second Open of it — here from the same process, which
// flock(2) treats like another — fails at once and names the entry;
// after Close it succeeds.
func TestOpenHeldEntryFails(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "held")
	s, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, key, "fig-1", 1)
	if err == nil {
		t.Fatal("second Open of a held entry succeeded")
	}
	for _, want := range []string{key, "fig-1", "in use"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %q; want it to name %q", err, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

// TestLegacyShardsIgnored: a shard-*.log an older build left in an
// entry is never read, even when it is not a frame log.
func TestLegacyShardsIgnored(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "legacy")
	if err := os.MkdirAll(filepath.Join(dir, key), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key, "shard-old.log"), []byte("not a frame log"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Loaded(); n != 0 {
		t.Fatalf("Loaded = %d; want 0", n)
	}
}

func TestForeignShardKeyRejected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "entry")
	// Plant a log written under a different seed as the entry's log.
	hdr, err := framelog.HeaderBytes(framelog.Key{GitRevision: ContentRevision, SpecHash: key, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, key), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key, logFile), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, key, "fig-1", 1)
	if !errors.Is(err, framelog.ErrKeyMismatch) {
		t.Fatalf("Open over a foreign log: err = %v; want ErrKeyMismatch", err)
	}
}

func TestListAndGC(t *testing.T) {
	dir := t.TempDir()
	mk := func(salt, spec string, seed uint64, trials int) string {
		key := testKey(t, salt)
		s, err := Open(dir, key, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trials; i++ {
			if err := s.Save("b", i, []byte(fmt.Sprintf("t%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return key
	}
	keyA := mk("a", "fig-1", 1, 3)
	keyB := mk("b", "fig-2", 1, 5)
	mk("c", "stale-spec", 7, 2)

	// Non-entry clutter must be ignored.
	if err := os.Mkdir(filepath.Join(dir, "not-a-key"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("List returned %d entries; want 3", len(infos))
	}
	byID := make(map[string]EntryInfo)
	for _, info := range infos {
		byID[info.SpecID] = info
	}
	if got := byID["fig-2"]; got.Trials != 5 || got.Key != keyB {
		t.Fatalf("fig-2 entry = %+v", got)
	}

	pruned, err := GC(dir, func(spec string) bool { return strings.HasPrefix(spec, "fig-") })
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0].SpecID != "stale-spec" {
		t.Fatalf("GC pruned %+v; want exactly stale-spec", pruned)
	}
	if _, err := os.Stat(filepath.Join(dir, keyA)); err != nil {
		t.Fatal("GC removed a kept entry")
	}
	infos, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("after GC, List returned %d entries; want 2", len(infos))
	}
}

func TestSaveAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir(), testKey(t, "closed"), "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("b", 0, []byte{1}); err == nil {
		t.Fatal("Save after Close should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestLastRecordWinsOnDuplicate pins the index's duplicate policy:
// a later record for the same (batch, trial) replaces an earlier one
// when a log is read back. (A trial is deterministic in its index, so
// any duplicate is bit-identical and the policy never changes a
// result.)
func TestLastRecordWinsOnDuplicate(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "dup")
	s, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("b", 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("b", 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir, key, "fig-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if data, ok := r.Peek("b", 0); !ok || string(data) != "\x02" {
		t.Fatalf("Peek = %v, %v; want the later record", data, ok)
	}
}
