package cluster

// Contact codec tests: every binary contact body round-trips, and
// decoding arbitrary bytes neither panics nor sizes a list from a count
// the body cannot hold.

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/chaos"
)

// frameBody strips a frame's length prefix and type byte.
func frameBody(frame []byte) []byte { return frame[bundle.FramePrefixSize+1:] }

// checkBounded requires every list a decoder returned to have at most
// one element per body byte, and its IDs to fit in the body.
func checkBounded(t *testing.T, what string, body []byte, ids []string, flags []bool) {
	t.Helper()
	size := 0
	for _, id := range ids {
		size += len(id)
	}
	if cap(ids) > len(body) || cap(flags) > len(body) || size > len(body) {
		t.Fatalf("%s: %d-byte body decoded to %d ID slots (%d ID bytes) and %d flag slots", what, len(body), cap(ids), size, cap(flags))
	}
}

func sameHello(a, b helloMsg) bool {
	return a.Version == b.Version && a.From == b.From && a.To == b.To &&
		math.Float64bits(a.Now) == math.Float64bits(b.Now) && slices.Equal(a.IDs, b.IDs)
}

func sameAck(a, b helloAckMsg) bool {
	return a.Done == b.Done && slices.Equal(a.Seen, b.Seen) && slices.Equal(a.IDs, b.IDs)
}

// roundTrip encodes each message, decodes it back and requires the
// same message.
func roundTrip(t *testing.T, h helloMsg, a helloAckMsg, e endOffersMsg, v verdictMsg) {
	t.Helper()
	if got, err := decodeHello(frameBody(h.frame())); err != nil || !sameHello(got, h) {
		t.Fatalf("hello %+v decoded as %+v (err %v)", h, got, err)
	}
	if got, err := decodeHelloAck(frameBody(a.frame())); err != nil || !sameAck(got, a) {
		t.Fatalf("hello ack %+v decoded as %+v (err %v)", a, got, err)
	}
	if got, err := decodeEndOffers(frameBody(e.frame())); err != nil || !slices.Equal(got.Seen, e.Seen) {
		t.Fatalf("end of offers %+v decoded as %+v (err %v)", e, got, err)
	}
	if got, err := decodeVerdict(frameBody(v.frame())); err != nil || got != v {
		t.Fatalf("verdict %+v decoded as %+v (err %v)", v, got, err)
	}
}

func FuzzContactCodec(f *testing.F) {
	forged := []byte{0, 0, 0, protoVersion, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 32}
	f.Add(uint32(1), uint32(2), 3.5, uint32(4), byte(0b0011), strings.Repeat("a", 32)+","+strings.Repeat("b", 32), []byte{1, 0}, "already saw", forged)
	f.Add(uint32(0), uint32(0), math.Inf(-1), uint32(math.MaxUint32), byte(0b1000), "", []byte{}, "", []byte{1, 0, 0, 0, 1, 2, 0, 0, 0, 0})
	f.Add(uint32(math.MaxUint32), uint32(7), -0.0, uint32(math.MaxInt32), byte(0b0100), strings.Repeat("x", 200), []byte{0}, "buffer full", []byte(`{"v":4,"from":0,"to":1}`))
	f.Fuzz(func(t *testing.T, from, to uint32, now float64, hops uint32, bits byte, ids string, flags []byte, reason string, raw []byte) {
		idList := strings.Split(ids, ",")
		seen := make([]bool, len(flags))
		for i, b := range flags {
			seen[i] = b&1 == 1
		}
		h := helloMsg{Version: protoVersion, From: int(from), To: int(to), Now: now, IDs: idList}
		a := helloAckMsg{Seen: seen, IDs: idList, Done: bits&0x10 != 0}
		v := verdictMsg{Accepted: bits&1 != 0, Delivered: bits&2 != 0, BufferFull: bits&4 != 0, Damaged: bits&8 != 0, Reason: reason}
		roundTrip(t, h, a, endOffersMsg{Seen: seen}, v)

		// A hop counter is signed: a prefix with the top bit set is
		// refused, any other comes back as written.
		got, frame, err := decodeOffer(frameBody(offerFrame(int(hops), raw)))
		switch {
		case int32(hops) < 0 || len(raw) == 0:
			if err == nil {
				t.Fatalf("offer with hop prefix %#x and %d frame bytes accepted as %d hops", hops, len(raw), got)
			}
		case err != nil || got != int(hops) || !bytes.Equal(frame, raw):
			t.Fatalf("offer of %d hops decoded as %d (err %v)", hops, got, err)
		}

		// Arbitrary bytes: no panic, no list sized beyond the body, and
		// whatever decodes re-encodes to the same message.
		if m, err := decodeHello(raw); err == nil {
			checkBounded(t, "hello", raw, m.IDs, nil)
			roundTrip(t, m, a, endOffersMsg{}, v)
		}
		if m, err := decodeHelloAck(raw); err == nil {
			checkBounded(t, "hello ack", raw, m.IDs, m.Seen)
			roundTrip(t, h, m, endOffersMsg{}, v)
		}
		if m, err := decodeEndOffers(raw); err == nil {
			checkBounded(t, "end of offers", raw, nil, m.Seen)
			roundTrip(t, h, a, m, v)
		}
		if m, err := decodeVerdict(raw); err == nil {
			roundTrip(t, h, a, endOffersMsg{}, m)
		}
	})
}

// TestSmallestHelloOutlastsChaosCut: a chaos reset or tear cuts a
// contact attempt's first writes, and must land inside the hello, the
// first frame a dialer writes, never between an offer and its verdict.
// So the smallest hello frame must be longer than every cut point the
// chaos plans draw.
func TestSmallestHelloOutlastsChaosCut(t *testing.T) {
	smallest := len(helloMsg{Version: protoVersion}.frame())
	for seed := uint64(0); seed < 200; seed++ {
		for _, s := range chaos.NewPlan(seed, 4).Slots {
			if s.CutAfter >= smallest {
				t.Fatalf("seed %d: a %s after %d bytes can outlast the %d-byte hello", seed, s.Kind, s.CutAfter, smallest)
			}
		}
	}
}
