// Package framelog is the keyed frame log: the append-only file format
// underneath the content-addressed result cache shards
// (internal/resultcache). A log is a header — magic, format version,
// one gob-encoded Key frame — followed by zero or more gob-encoded
// Record frames:
//
//	magic   8 bytes  "DTNCKPT\n"
//	version u32 LE   format version (currently 1)
//	frame   key frame: gob-encoded Key
//	frame*  record frames: gob-encoded Record, one per completed trial
//
// where every frame is
//
//	length  u32 LE   payload byte count
//	crc     u32 LE   IEEE CRC-32 of the payload
//	payload length bytes
//
// Writers persist the header atomically and append each record frame
// with a single write, so a SIGKILL tears at most the trailing frame.
// Readers distinguish that expected artifact (ErrTruncated — a writer
// repairs its own log by truncating to the last complete frame, a
// reader of someone else's log retries later) from actual corruption
// (ErrCorrupt: CRC mismatch, undecodable gob, or an impossible frame
// length), which is always rejected loudly.
//
// The exported functions are the whole format: writers compose
// HeaderBytes + EncodeRecord, readers compose DecodeHeader +
// DecodeRecordsFrom (incrementally, from any byte offset a previous
// decode returned). The magic, version and gob field names are frozen:
// logs written by earlier releases must keep decoding.
package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the format version. Logs written by a different version
// are rejected with ErrVersion.
const Version uint32 = 1

var magic = [8]byte{'D', 'T', 'N', 'C', 'K', 'P', 'T', '\n'}

// maxFrame bounds a single frame's payload. A declared length beyond
// it cannot come from this writer, so the reader classifies it as
// corruption rather than attempting a giant allocation.
const maxFrame = 16 << 20

// Typed decode failures. Every way a log can fail to decode maps to
// exactly one of these, so callers (and the fuzz target) can assert
// that no malformed input ever yields a partial silent load.
var (
	// ErrNotLog: the data does not begin with the magic bytes.
	ErrNotLog = errors.New("framelog: not a frame log")
	// ErrVersion: the format version is not the one this code writes.
	ErrVersion = errors.New("framelog: unsupported format version")
	// ErrKeyMismatch: the stored key names a different log than the
	// reader expected (callers compare keys and wrap this).
	ErrKeyMismatch = errors.New("framelog: key mismatch (foreign log)")
	// ErrCorrupt: a complete frame fails its CRC, declares an
	// impossible length, or carries undecodable gob.
	ErrCorrupt = errors.New("framelog: corrupt frame")
	// ErrTruncated: the data ends mid-frame — the expected tear pattern
	// of a killed writer.
	ErrTruncated = errors.New("framelog: truncated trailing frame")
)

// Key identifies the contents a log belongs to. Two logs with equal
// keys hold interchangeable records. The field names are part of the
// on-disk gob encoding and must not change.
type Key struct {
	GitRevision string // revision slot; resultcache stores its content sentinel here
	SpecHash    string // hash of the inputs the records were computed from
	Seed        uint64 // base RNG seed
}

// Record is one persisted trial result: which batch (scenario series)
// and trial index it is, plus the gob encoding of the value.
type Record struct {
	Batch string
	Trial int
	Data  []byte
}

// HeaderBytes serializes a log header (magic, version, key frame) for
// key. Writers persist it atomically before appending record frames.
func HeaderBytes(key Key) ([]byte, error) {
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], Version)
	hdr.Write(ver[:])
	keyFrame, err := encodeFrame(&key)
	if err != nil {
		return nil, fmt.Errorf("framelog: encode key: %w", err)
	}
	hdr.Write(keyFrame)
	return hdr.Bytes(), nil
}

// EncodeRecord serializes one record as a complete CRC frame, ready to
// be appended to a log with a single write.
func EncodeRecord(rec Record) ([]byte, error) {
	frame, err := encodeFrame(&rec)
	if err != nil {
		return nil, fmt.Errorf("framelog: encode record: %w", err)
	}
	return frame, nil
}

// DecodeHeader parses and validates a log header, returning the stored
// key and the offset of the first record frame. Malformed headers map
// to the package's typed errors (ErrNotLog, ErrVersion, ErrTruncated,
// ErrCorrupt).
func DecodeHeader(data []byte) (Key, int, error) {
	var key Key
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return Key{}, 0, ErrNotLog
	}
	off := len(magic)
	if len(data) < off+4 {
		return Key{}, 0, fmt.Errorf("%w: header ends mid-version", ErrTruncated)
	}
	if v := binary.LittleEndian.Uint32(data[off:]); v != Version {
		return Key{}, 0, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	off += 4
	payload, next, err := readFrame(data, off)
	if err != nil {
		return Key{}, 0, fmt.Errorf("key frame: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&key); err != nil {
		return Key{}, 0, fmt.Errorf("%w: key frame gob: %v", ErrCorrupt, err)
	}
	return key, next, nil
}

// DecodeRecordsFrom parses record frames starting at off (a value
// previously returned by DecodeHeader or DecodeRecordsFrom), returning
// the decoded records and the offset of the last byte belonging to a
// complete frame. On a torn tail the records decoded so far are
// returned alongside ErrTruncated — incremental readers (resultcache
// shard refresh) treat that as "a writer is mid-append, retry from
// validEnd later", while a writer reopening its own log uses validEnd
// as the repair point.
func DecodeRecordsFrom(data []byte, off int) (records []Record, validEnd int, err error) {
	validEnd = off
	for off < len(data) {
		payload, next, ferr := readFrame(data, off)
		if ferr != nil {
			// Records decoded so far are intact; report them alongside
			// the error so callers can repair or retry a torn tail.
			return records, validEnd, fmt.Errorf("record %d: %w", len(records), ferr)
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return records, validEnd, fmt.Errorf("%w: record %d gob: %v", ErrCorrupt, len(records), err)
		}
		records = append(records, rec)
		off = next
		validEnd = off
	}
	return records, validEnd, nil
}

// readFrame parses one frame at off, returning its payload and the
// offset of the next frame. It distinguishes a frame that runs past
// the end of the data (ErrTruncated — a torn append) from one whose
// complete bytes are inconsistent (ErrCorrupt).
func readFrame(data []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(data) {
		return nil, 0, fmt.Errorf("%w: frame header ends at byte %d", ErrTruncated, len(data))
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length > maxFrame {
		return nil, 0, fmt.Errorf("%w: frame declares impossible length %d", ErrCorrupt, length)
	}
	start := off + 8
	end := start + int(length)
	if end > len(data) {
		return nil, 0, fmt.Errorf("%w: frame payload ends at byte %d", ErrTruncated, len(data))
	}
	payload = data[start:end]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, 0, fmt.Errorf("%w: CRC %08x, frame claims %08x", ErrCorrupt, got, crc)
	}
	return payload, end, nil
}

// encodeFrame gob-encodes v and wraps it in a length+CRC frame.
func encodeFrame(v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, err
	}
	if payload.Len() > maxFrame {
		return nil, fmt.Errorf("frame payload %d bytes exceeds limit %d", payload.Len(), maxFrame)
	}
	frame := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[8:], payload.Bytes())
	return frame, nil
}
