package shamir

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	secret := []byte("the commander is at hill 402")
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {3, 2}, {5, 3}, {10, 10}, {255, 128},
	} {
		shares, err := Split(secret, tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("share count %d", len(shares))
		}
		got, err := Combine(shares[:tc.k])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("n=%d k=%d: reconstruction failed", tc.n, tc.k)
		}
	}
}

func TestAnyKSharesSuffice(t *testing.T) {
	secret := []byte("any subset works")
	const n, k = 6, 3
	shares, err := Split(secret, n, k)
	if err != nil {
		t.Fatal(err)
	}
	// Try several k-subsets, including non-contiguous ones.
	subsets := [][]int{{0, 1, 2}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5}, {5, 0, 3}}
	for _, idx := range subsets {
		sub := make([]Share, 0, k)
		for _, i := range idx {
			sub = append(sub, shares[i])
		}
		got, err := Combine(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("subset %v failed", idx)
		}
	}
	// More than k shares also reconstruct.
	got, err := Combine(shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("all-shares reconstruction failed")
	}
}

// TestEveryThreeOfFiveRecovers: with threshold 3, every one of the ten
// 3-subsets of five shares recovers the secret, in any point order.
func TestEveryThreeOfFiveRecovers(t *testing.T) {
	secret := []byte("a 32-byte layer key, in 5 pieces")
	shares, err := Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	subsets := 0
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for c := b + 1; c < 5; c++ {
				subsets++
				got, err := Combine([]Share{shares[c], shares[a], shares[b]})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, secret) {
					t.Fatalf("subset {%d,%d,%d} recovered %x", a, b, c, got)
				}
			}
		}
	}
	if subsets != 10 {
		t.Fatalf("tried %d subsets, want 10", subsets)
	}
}

// combinePerByte is the reference Combine: the textbook Lagrange
// interpolation at x = 0, with the basis recomputed for every byte.
func combinePerByte(shares []Share) []byte {
	secret := make([]byte, len(shares[0].Y))
	for i := range secret {
		var v byte
		for j, sj := range shares {
			num, den := byte(1), byte(1)
			for m, sm := range shares {
				if m == j {
					continue
				}
				num = gfMul(num, sm.X)
				den = gfMul(den, sj.X^sm.X)
			}
			v ^= gfMul(sj.Y[i], gfMul(num, gfInv(den)))
		}
		secret[i] = v
	}
	return secret
}

// TestCombineMatchesPerByteReference: on random share values at random
// distinct points — threshold or not — Combine returns exactly what the
// per-byte reference interpolates.
func TestCombineMatchesPerByteReference(t *testing.T) {
	f := func(seed []byte, rawCount, rawLen uint8) bool {
		count := int(rawCount%8) + 1
		length := int(rawLen%40) + 1
		points := make([]byte, 255)
		for i := range points {
			points[i] = byte(i + 1)
		}
		shares := make([]Share, count)
		for j := range shares {
			// A seed-driven permutation step picks distinct points.
			k := j
			if len(seed) > 0 {
				k += int(seed[j%len(seed)]) % (len(points) - j)
			}
			points[j], points[k] = points[k], points[j]
			y := make([]byte, length)
			if _, err := rand.Read(y); err != nil {
				return false
			}
			shares[j] = Share{X: points[j], Y: y}
		}
		got, err := Combine(shares)
		return err == nil && bytes.Equal(got, combinePerByte(shares))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFewerThanKSharesGarbage(t *testing.T) {
	secret := bytes.Repeat([]byte{0xAB}, 64)
	shares, err := Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Combine(shares[:2]) // below threshold
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Fatal("two shares reconstructed a threshold-3 secret")
	}
}

func TestSingleShareRevealsNothing(t *testing.T) {
	// With k >= 2, one share's bytes should look unrelated to the
	// secret: for a constant secret, share bytes should not be
	// constant-equal to it.
	secret := bytes.Repeat([]byte{0x00}, 256)
	shares, err := Split(secret, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, b := range shares[0].Y {
		if b == 0 {
			zeros++
		}
	}
	// Uniformly random bytes: expect ~1 zero in 256; allow slack.
	if zeros > 30 {
		t.Fatalf("share leaks the all-zero secret: %d/256 zero bytes", zeros)
	}
}

func TestSplitValidation(t *testing.T) {
	if _, err := Split(nil, 3, 2); err == nil {
		t.Fatal("accepted empty secret")
	}
	if _, err := Split([]byte("x"), 2, 0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := Split([]byte("x"), 2, 3); err == nil {
		t.Fatal("accepted n < k")
	}
	if _, err := Split([]byte("x"), 256, 2); err == nil {
		t.Fatal("accepted n > 255")
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine(nil); err == nil {
		t.Fatal("accepted no shares")
	}
	if _, err := Combine([]Share{{X: 0, Y: []byte{1}}}); err == nil {
		t.Fatal("accepted x=0 share")
	}
	if _, err := Combine([]Share{{X: 1, Y: []byte{1}}, {X: 1, Y: []byte{2}}}); err == nil {
		t.Fatal("accepted duplicate share points")
	}
	if _, err := Combine([]Share{{X: 1, Y: []byte{1}}, {X: 2, Y: []byte{1, 2}}}); err == nil {
		t.Fatal("accepted mismatched share lengths")
	}
}

func TestThresholdOneIsPlaintextAtPoints(t *testing.T) {
	// k=1: polynomial is constant, every share equals the secret.
	secret := []byte("public")
	shares, err := Split(secret, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		if !bytes.Equal(s.Y, secret) {
			t.Fatal("k=1 share differs from secret")
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []byte, rawN, rawK uint8) bool {
		if len(raw) == 0 {
			raw = []byte{42}
		}
		if len(raw) > 128 {
			raw = raw[:128]
		}
		n := int(rawN%12) + 1
		k := int(rawK)%n + 1
		shares, err := Split(raw, n, k)
		if err != nil {
			return false
		}
		got, err := Combine(shares[n-k:])
		if err != nil {
			return false
		}
		return bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverse: a * a^-1 = 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv failed for %d", a)
		}
	}
	// Distributivity spot checks via quick.
	f := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Commutativity and associativity.
	g := func(a, b, c byte) bool {
		return gfMul(a, b) == gfMul(b, a) && gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	gfInv(0)
}

func TestSplitDeterministicGivenRand(t *testing.T) {
	// Same randomness stream -> same shares.
	secret := []byte("det")
	a, err := splitWithRand(secret, 4, 2, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := splitWithRand(secret, 4, 2, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].X != b[i].X || !bytes.Equal(a[i].Y, b[i].Y) {
			t.Fatal("same randomness produced different shares")
		}
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x5c
	}
	return len(p), nil
}

func BenchmarkSplit(b *testing.B) {
	secret := make([]byte, 1024)
	if _, err := rand.Read(secret); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := Split(secret, 10, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	secret := make([]byte, 1024)
	if _, err := rand.Read(secret); err != nil {
		b.Fatal(err)
	}
	shares, err := Split(secret, 10, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(shares[:4]); err != nil {
			b.Fatal(err)
		}
	}
}
