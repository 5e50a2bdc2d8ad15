package framelog

import (
	"errors"
	"testing"
)

// FuzzFrameLogDecode hammers the decoder with arbitrary bytes. The
// contract under fuzz: the decoder never panics, and every rejection
// is one of the typed errors — torn frames, flipped bytes, and
// truncated tails must never produce a partial silent load (a nil
// error with fewer records than the data's complete frames claim).
func FuzzFrameLogDecode(f *testing.F) {
	// Seed with a real log and the damage shapes a killed or
	// misbehaving writer can actually produce.
	records := make([]Record, 3)
	for i := range records {
		records[i] = Record{Batch: "fig04/delivery/s0", Trial: i, Data: []byte{byte(i), 0xAB, 0xCD}}
	}
	good := encode(f, Key{GitRevision: "rev", SpecHash: "hash", Seed: 1}, records)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("DTNCKPT\n")) // magic only
	f.Add(good[:10])           // torn inside the version word
	f.Add(good[:len(good)-1])  // torn tail, one byte short
	f.Add(good[:len(good)/2])  // torn mid-file
	for _, pos := range []int{8, 12, 20, len(good) - 3} {
		flipped := append([]byte(nil), good...)
		flipped[pos] ^= 0x80
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		key, records, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrNotLog) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: re-encoding the same key and records must
		// reproduce data that decodes to the same content — the decoder
		// may not have hallucinated structure.
		key2, records2, err := decode(encode(t, key, records))
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if key2 != key || len(records2) != len(records) {
			t.Fatalf("round trip diverged: %d vs %d records", len(records2), len(records))
		}
	})
}
