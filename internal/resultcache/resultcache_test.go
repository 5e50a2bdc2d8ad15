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
	if _, err := Open(t.TempDir(), "not-a-hash", "spec", 1, "w"); err == nil {
		t.Fatal("Open accepted a non-sha256 content key")
	}
}

func TestRoundtripAndReopen(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "roundtrip")
	s, err := Open(dir, key, "fig-1", 42, "worker-a")
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
	if s.Has("fig-1/delivery/s0", 1) {
		t.Fatal("Has reported an unsaved trial")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process with the same owner resumes the same shard.
	s2, err := Open(dir, key, "fig-1", 42, "worker-a")
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

func TestRefreshSeesOtherWorkersShards(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "fleet")
	a, err := Open(dir, key, "fig-1", 1, "worker-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, key, "fig-1", 1, "worker-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Save("batch", 0, []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Save("batch", 1, []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if a.Has("batch", 1) {
		t.Fatal("worker-a saw worker-b's record before Refresh")
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Peek("batch", 1); !ok || string(got) != "from-b" {
		t.Fatalf("after Refresh, Peek = %q, %v; want from-b, true", got, ok)
	}
	// Incremental: a second append is visible on the next Refresh too.
	if err := b.Save("batch", 2, []byte("more-b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !a.Has("batch", 2) {
		t.Fatal("incremental Refresh missed a later append")
	}
}

func TestRefreshToleratesTornForeignTail(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "torn")
	a, err := Open(dir, key, "fig-1", 1, "worker-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, key, "fig-1", 1, "worker-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Save("batch", 0, []byte("complete")); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Simulate worker-b dying mid-append: tear its last frame.
	shard := filepath.Join(dir, key, "shard-worker-b.log")
	rec, err := framelog.EncodeRecord(framelog.Record{Batch: "batch", Trial: 1, Data: []byte("torn")})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(shard, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The live reader keeps the complete record and ignores the tear.
	if err := a.Refresh(); err != nil {
		t.Fatalf("Refresh failed on a foreign torn tail: %v", err)
	}
	if !a.Has("batch", 0) {
		t.Fatal("complete record lost behind a torn tail")
	}
	if a.Has("batch", 1) {
		t.Fatal("torn record surfaced as complete")
	}

	// The tail "heals" when the bytes complete; Refresh picks it up.
	f, err = os.OpenFile(shard, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[len(rec)-3:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Peek("batch", 1); !ok || string(got) != "torn" {
		t.Fatalf("healed record: Peek = %q, %v; want torn, true", got, ok)
	}
}

// TestRefreshReadsOnlyTheTail pins the incremental-scan contract: once
// a shard's prefix has been scanned, later Refreshes start from the
// stored offset and never revisit earlier bytes — I/O per poll scales
// with new appends, not total cache size. Scribbling over the
// already-scanned header is therefore invisible to the live reader.
func TestRefreshReadsOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "tail")
	a, err := Open(dir, key, "fig-1", 1, "worker-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, key, "fig-1", 1, "worker-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Save("batch", 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Destroy the magic bytes of b's already-scanned header in place.
	// A reader that re-read the file from the start would now fail;
	// a tail-only reader never looks back.
	shard := filepath.Join(dir, key, "shard-worker-b.log")
	f, err := os.OpenFile(shard, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := b.Save("batch", 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatalf("Refresh re-read the scanned prefix: %v", err)
	}
	if got, ok := a.Peek("batch", 1); !ok || string(got) != "second" {
		t.Fatalf("tail append missed: Peek = %q, %v; want second, true", got, ok)
	}
}

func TestReopenRepairsOwnTornTail(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "self-repair")
	s, err := Open(dir, key, "fig-1", 1, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("batch", 0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	shard := filepath.Join(dir, key, "shard-w.log")
	if f, err := os.OpenFile(shard, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte{9, 0, 0, 0}) // half a frame header
		f.Close()
	}

	s2, err := Open(dir, key, "fig-1", 1, "w")
	if err != nil {
		t.Fatalf("reopen over own torn tail: %v", err)
	}
	defer s2.Close()
	if !s2.Has("batch", 0) {
		t.Fatal("repair lost the complete record")
	}
	if err := s2.Save("batch", 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	// The file must be fully valid again.
	s3, err := Open(dir, key, "fig-1", 1, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Loaded() != 2 {
		t.Fatalf("after repair+append, Loaded = %d; want 2", s3.Loaded())
	}
}

func TestForeignShardKeyRejected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "entry")
	s, err := Open(dir, key, "fig-1", 1, "w")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Plant a shard written under a different seed in the same entry.
	hdr, err := framelog.HeaderBytes(framelog.Key{GitRevision: ContentRevision, SpecHash: key, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key, "shard-evil.log"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Refresh()
	if !errors.Is(err, framelog.ErrKeyMismatch) {
		t.Fatalf("Refresh over a foreign shard: err = %v; want ErrKeyMismatch", err)
	}
}

func TestSanitizeOwner(t *testing.T) {
	for in, want := range map[string]string{
		"":             "anon",
		"host-1234":    "host-1234",
		"my host/12:x": "my-host-12-x",
		"a.b_c-D9":     "a.b_c-D9",
	} {
		if got := SanitizeOwner(in); got != want {
			t.Errorf("SanitizeOwner(%q) = %q; want %q", in, got, want)
		}
	}
}

func TestListAndGC(t *testing.T) {
	dir := t.TempDir()
	mk := func(salt, spec string, seed uint64, trials int) string {
		key := testKey(t, salt)
		s, err := Open(dir, key, spec, seed, "w")
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
	if got := byID["fig-2"]; got.Trials != 5 || got.Shards != 1 || got.Key != keyB {
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
	s, err := Open(t.TempDir(), testKey(t, "closed"), "fig-1", 1, "w")
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
// when a shard is read back. (Racing fleet workers append bit-identical
// duplicates, so the policy never changes a result.)
func TestLastRecordWinsOnDuplicate(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "dup")
	s, err := Open(dir, key, "fig-1", 1, "w")
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
	r, err := Open(dir, key, "fig-1", 1, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if data, ok := r.Peek("b", 0); !ok || string(data) != "\x02" {
		t.Fatalf("Peek = %v, %v; want the later record", data, ok)
	}
}
