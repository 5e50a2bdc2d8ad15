package bundle

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func sample() *Bundle {
	b := &Bundle{
		Expiry:    123.5,
		Group:     7,
		DeliverTo: -1,
		Data:      []byte("onion ciphertext bytes"),
	}
	copy(b.ID[:], "0123456789abcdef")
	return b
}

func TestRoundTripRelay(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if want := headerSize + len(b.Data) + trailerSize; len(frame) != want {
		t.Fatalf("frame size %d, want %d", len(frame), want)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != b.ID || got.Expiry != b.Expiry || got.LastHop || got.Group != 7 || got.DeliverTo != -1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !bytes.Equal(got.Data, b.Data) {
		t.Fatal("payload mismatch")
	}
}

func TestRoundTripLastHop(t *testing.T) {
	b := sample()
	b.LastHop = true
	b.DeliverTo = 42
	b.Group = -1
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.LastHop || got.DeliverTo != 42 || got.Group != -1 {
		t.Fatalf("last hop fields: %+v", got)
	}
}

func TestUnmarshalDoesNotAliasFrame(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[headerSize] ^= 0xFF
	if got.Data[0] == b.Data[0]^0xFF {
		t.Fatal("decoded payload aliases the frame buffer")
	}
}

func TestValidate(t *testing.T) {
	cases := map[string]func(*Bundle){
		"empty payload":       func(b *Bundle) { b.Data = nil },
		"oversize payload":    func(b *Bundle) { b.Data = make([]byte, MaxPayload+1) },
		"negative expiry":     func(b *Bundle) { b.Expiry = -1 },
		"NaN expiry":          func(b *Bundle) { b.Expiry = math.NaN() },
		"lasthop without dst": func(b *Bundle) { b.LastHop = true; b.DeliverTo = -1 },
		"relay without group": func(b *Bundle) { b.Group = -1 },
	}
	for name, mutate := range cases {
		b := sample()
		mutate(b)
		if _, err := b.Marshal(); err == nil {
			t.Errorf("%s: marshaled", name)
		}
	}
}

func TestEveryCorruptByteDetected(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, headerSize - 1, headerSize, len(frame) - 1} {
		if _, err := Unmarshal(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
	// Extension detected too.
	if _, err := Unmarshal(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatal("extended frame not detected")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	copy(bad[0:4], "XXXX")
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), frame...)
	bad[4] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestHostileLengthField(t *testing.T) {
	b := sample()
	frame, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	// Claim a huge payload; must be rejected before any allocation.
	bad[38], bad[39], bad[40], bad[41] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(id [16]byte, payload []byte, group uint16, lastHop bool, deliver uint16, expiry uint32) bool {
		if len(payload) == 0 {
			payload = []byte{1}
		}
		b := &Bundle{ID: id, Expiry: float64(expiry), Data: payload, Group: -1, DeliverTo: -1}
		if lastHop {
			b.LastHop = true
			b.DeliverTo = int32(deliver)
		} else {
			b.Group = int32(group)
		}
		frame, err := b.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		return got.ID == b.ID && got.LastHop == b.LastHop &&
			got.Group == b.Group && got.DeliverTo == b.DeliverTo &&
			got.Expiry == b.Expiry && bytes.Equal(got.Data, b.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	bd := sample()
	bd.Data = make([]byte, 2048)
	b.SetBytes(int64(headerSize + len(bd.Data) + trailerSize))
	for i := 0; i < b.N; i++ {
		if _, err := bd.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	bd := sample()
	bd.Data = make([]byte, 2048)
	frame, err := bd.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}
