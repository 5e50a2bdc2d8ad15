// Package bundle implements the wire format of the Bundle layer, where
// DTN routing lives (Sec. I: "a DTN routing is implemented in the
// Bundle layer which is located between the transport and application
// layers"). A bundle frames one onion ciphertext together with the
// metadata a custodian needs to forward it: message ID, deadline, and
// either the onion group that can peel the current layer or — after
// the last relay layer — the destination.
//
// Layout (big endian):
//
//	offset size  field
//	0      4     magic "ODTN"
//	4      1     version (1)
//	5      1     flags (bit 0: last hop)
//	6      16    message ID
//	22     8     expiry (float64 bits; 0 = none)
//	30     4     group ID (uint32; 0xFFFFFFFF when last hop)
//	34     4     deliver-to node (uint32; 0xFFFFFFFF unless last hop)
//	38     4     payload length
//	42     n     payload (onion ciphertext)
//	42+n   4     CRC-32C over bytes [0, 42+n)
//
// The CRC detects transport corruption of the frame itself; the onion
// payload is additionally protected end to end by AEAD, so a frame
// that passes the CRC but carries tampered ciphertext is still
// rejected at decryption.
package bundle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current wire format version.
const Version = 1

// HeaderSize and TrailerSize are the fixed framing overheads around the
// onion payload. They are exported so fault injection and tests can
// construct boundary-exact torn frames (e.g. a frame cut at precisely
// the header/payload boundary) without duplicating the layout.
const (
	HeaderSize  = 4 + 1 + 1 + 16 + 8 + 4 + 4 + 4
	TrailerSize = 4
)

const (
	magic       = "ODTN"
	headerSize  = HeaderSize
	trailerSize = TrailerSize
	noneID      = 0xFFFFFFFF

	flagLastHop = 1 << 0
)

// Unmarshal failures carry one of these sentinels (via errors.Is) so
// custodians can distinguish a torn transfer — worth an immediate
// retransmission, the peer is still in contact — from a damaged or
// hostile frame, which is dropped gracefully and re-offered only at a
// later contact.
var (
	// ErrTruncated marks a frame shorter than its declared length: the
	// transfer aborted mid-bundle.
	ErrTruncated = errors.New("bundle: truncated frame")
	// ErrTampered marks a complete-looking frame that fails
	// verification: bad magic, version skew, hostile length field,
	// trailing garbage, or checksum mismatch.
	ErrTampered = errors.New("bundle: tampered frame")
)

// MaxPayload bounds a bundle's onion size (16 MiB), protecting
// receivers from hostile length fields.
const MaxPayload = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Bundle is one framed onion in custody.
type Bundle struct {
	ID      [16]byte
	Expiry  float64 // absolute deadline; 0 = never expires
	LastHop bool
	// Group is the onion group whose members can peel the payload's
	// outer layer; meaningful when !LastHop.
	Group int32
	// DeliverTo is the final destination; meaningful when LastHop.
	DeliverTo int32
	// Data is the onion ciphertext at its current layer.
	Data []byte
}

// Validate checks semantic invariants before marshaling.
func (b *Bundle) Validate() error {
	switch {
	case len(b.Data) == 0:
		return errors.New("bundle: empty payload")
	case len(b.Data) > MaxPayload:
		return fmt.Errorf("bundle: payload %d exceeds limit %d", len(b.Data), MaxPayload)
	case b.Expiry < 0 || math.IsNaN(b.Expiry) || math.IsInf(b.Expiry, 0):
		return fmt.Errorf("bundle: invalid expiry %v", b.Expiry)
	case b.LastHop && b.DeliverTo < 0:
		return errors.New("bundle: last hop without destination")
	case !b.LastHop && b.Group < 0:
		return errors.New("bundle: relay hop without group")
	}
	return nil
}

// Marshal encodes the bundle into the wire format.
func (b *Bundle) Marshal() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, headerSize+len(b.Data)+trailerSize)
	copy(out[0:4], magic)
	out[4] = Version
	if b.LastHop {
		out[5] |= flagLastHop
	}
	copy(out[6:22], b.ID[:])
	binary.BigEndian.PutUint64(out[22:30], math.Float64bits(b.Expiry))
	group, deliver := uint32(noneID), uint32(noneID)
	if b.LastHop {
		deliver = uint32(b.DeliverTo)
	} else {
		group = uint32(b.Group)
	}
	binary.BigEndian.PutUint32(out[30:34], group)
	binary.BigEndian.PutUint32(out[34:38], deliver)
	binary.BigEndian.PutUint32(out[38:42], uint32(len(b.Data)))
	copy(out[headerSize:], b.Data)
	sum := crc32.Checksum(out[:headerSize+len(b.Data)], castagnoli)
	binary.BigEndian.PutUint32(out[headerSize+len(b.Data):], sum)
	return out, nil
}

// Unmarshal decodes and verifies a wire frame. Any corruption —
// truncation, bad magic, version skew, length mismatch, checksum
// failure — yields an error, so a custodian never accepts a damaged
// frame and the sender retains custody.
func Unmarshal(frame []byte) (*Bundle, error) {
	if len(frame) < headerSize+trailerSize {
		// Shorter than any legal frame — includes the boundary case of
		// a transfer torn at exactly the end of the header, which must
		// be rejected even though the whole header parses cleanly.
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(frame), headerSize+trailerSize)
	}
	if string(frame[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrTampered)
	}
	if frame[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrTampered, frame[4])
	}
	payloadLen := binary.BigEndian.Uint32(frame[38:42])
	if payloadLen > MaxPayload {
		return nil, fmt.Errorf("%w: declared payload %d exceeds limit", ErrTampered, payloadLen)
	}
	want := headerSize + int(payloadLen) + trailerSize
	if len(frame) < want {
		return nil, fmt.Errorf("%w: frame length %d, want %d", ErrTruncated, len(frame), want)
	}
	if len(frame) > want {
		return nil, fmt.Errorf("%w: frame length %d, want %d", ErrTampered, len(frame), want)
	}
	body := frame[:headerSize+int(payloadLen)]
	sum := binary.BigEndian.Uint32(frame[headerSize+int(payloadLen):])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTampered)
	}

	b := &Bundle{
		LastHop: frame[5]&flagLastHop != 0,
		Expiry:  math.Float64frombits(binary.BigEndian.Uint64(frame[22:30])),
		Data:    append([]byte(nil), frame[headerSize:headerSize+int(payloadLen)]...),
	}
	copy(b.ID[:], frame[6:22])
	group := binary.BigEndian.Uint32(frame[30:34])
	deliver := binary.BigEndian.Uint32(frame[34:38])
	if b.LastHop {
		if deliver == noneID {
			return nil, errors.New("bundle: last hop without destination")
		}
		b.DeliverTo = int32(deliver)
		b.Group = -1
	} else {
		if group == noneID {
			return nil, errors.New("bundle: relay hop without group")
		}
		b.Group = int32(group)
		b.DeliverTo = -1
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
