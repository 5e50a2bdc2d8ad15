package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testKey = Key{GitRevision: "abc123", SpecHash: "deadbeef", Seed: 42}

// decode parses a whole log image strictly: a torn tail is an error.
func decode(data []byte) (Key, []Record, error) {
	key, off, err := DecodeHeader(data)
	if err != nil {
		return Key{}, nil, err
	}
	records, _, err := DecodeRecordsFrom(data, off)
	if err != nil {
		return Key{}, nil, err
	}
	return key, records, nil
}

// encode builds a log image for key and records, the way a writer
// lays it out on disk.
func encode(t testing.TB, key Key, records []Record) []byte {
	t.Helper()
	data, err := HeaderBytes(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		frame, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	return data
}

// sample returns a log with n records of batch "batch/a".
func sample(t testing.TB, n int) []byte {
	t.Helper()
	records := make([]Record, n)
	for i := range records {
		records[i] = Record{Batch: "batch/a", Trial: i, Data: []byte{byte(i), 0xFF, byte(i * 3)}}
	}
	return encode(t, testKey, records)
}

func TestRoundTrip(t *testing.T) {
	key, records, err := decode(sample(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if key != testKey {
		t.Fatalf("key = %+v, want %+v", key, testKey)
	}
	if len(records) != 5 {
		t.Fatalf("got %d records, want 5", len(records))
	}
	for i, r := range records {
		if r.Batch != "batch/a" || r.Trial != i || !bytes.Equal(r.Data, []byte{byte(i), 0xFF, byte(i * 3)}) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestRejectsWrongMagicAndVersion(t *testing.T) {
	data := sample(t, 1)

	bad := append([]byte("NOTACKPT"), data[8:]...)
	if _, _, err := decode(bad); !errors.Is(err, ErrNotLog) {
		t.Fatalf("wrong magic: err = %v, want ErrNotLog", err)
	}

	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[8:], Version+1)
	if _, _, err := decode(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}

	if _, _, err := decode([]byte("short")); !errors.Is(err, ErrNotLog) {
		t.Fatalf("short file: err = %v, want ErrNotLog", err)
	}
}

func TestRejectsCorruptFrames(t *testing.T) {
	data := sample(t, 3)

	// Flip one payload byte near the end: CRC of that record must fail.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-2] ^= 0x40
	if _, _, err := decode(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}

	// An impossible declared frame length is corruption, not truncation.
	huge := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(huge[12:], maxFrame+1)
	if _, _, err := decode(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: err = %v, want ErrCorrupt", err)
	}
}

// TestTruncatedTailDetectedAndRepaired pins the torn-tail contract a
// writer's repair rests on: the complete records before the tear come
// back with ErrTruncated and a validEnd, and a log cut to validEnd
// accepts further appends and decodes cleanly.
func TestTruncatedTailDetectedAndRepaired(t *testing.T) {
	full := sample(t, 4)
	torn := full[:len(full)-2]
	_, off, err := DecodeHeader(torn)
	if err != nil {
		t.Fatal(err)
	}
	records, validEnd, err := DecodeRecordsFrom(torn, off)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn tail: err = %v, want ErrTruncated", err)
	}
	if len(records) != 3 {
		t.Fatalf("torn tail yielded %d intact records, want 3", len(records))
	}
	frame, err := EncodeRecord(Record{Batch: "batch/a", Trial: 3, Data: []byte{42}})
	if err != nil {
		t.Fatal(err)
	}
	repaired := append(append([]byte(nil), torn[:validEnd]...), frame...)
	_, records, err = decode(repaired)
	if err != nil {
		t.Fatalf("strict decode after repair: %v", err)
	}
	if len(records) != 4 || records[3].Trial != 3 || !bytes.Equal(records[3].Data, []byte{42}) {
		t.Fatalf("post-repair records = %+v", records)
	}
}

// TestHeaderTearHasNoRepairPoint pins that a cut inside the key frame
// is ErrTruncated from DecodeHeader itself: with no key to validate,
// there is no valid prefix to repair to.
func TestHeaderTearHasNoRepairPoint(t *testing.T) {
	if _, _, err := DecodeHeader(sample(t, 1)[:14]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header tear: err = %v, want ErrTruncated", err)
	}
}

// TestIncrementalDecodeFromValidEnd pins the resume offset contract:
// decoding from a previously returned validEnd yields exactly the
// records appended after it.
func TestIncrementalDecodeFromValidEnd(t *testing.T) {
	data := sample(t, 2)
	_, off, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	_, validEnd, err := DecodeRecordsFrom(data, off)
	if err != nil {
		t.Fatal(err)
	}
	more, err := EncodeRecord(Record{Batch: "b", Trial: 9, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := DecodeRecordsFrom(append(data, more...), validEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Trial != 9 {
		t.Fatalf("incremental decode = %+v, want only trial 9", records)
	}
}

// TestParentShardDecodes pins the on-disk format against a cache shard
// written by an earlier release (fig04, seed 1): the literal magic and
// version, and a clean decode whose key and records carry values —
// gob matches fields by name, so a renamed Key or Record field would
// decode to zero values here. (Gob type ids depend on registration
// order within a process, so the bytes are not compared verbatim.)
func TestParentShardDecodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-fig04.shard"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != "DTNCKPT\n" || binary.LittleEndian.Uint32(data[8:]) != 1 {
		t.Fatalf("fixture header = %q", data[:12])
	}
	key, records, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if key.GitRevision != "content-addressed" || key.Seed != 1 || len(key.SpecHash) != 64 {
		t.Fatalf("key = %+v", key)
	}
	if len(records) == 0 {
		t.Fatal("fixture holds no records")
	}
	for _, r := range records {
		if !strings.HasPrefix(r.Batch, "fig04/") || len(r.Data) == 0 {
			t.Fatalf("record %+v is not a fig04 trial", r)
		}
	}
}
