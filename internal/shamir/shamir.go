// Package shamir implements Shamir's (k, n) threshold secret sharing
// [Shamir 1979] over GF(2^8), the primitive behind the Threshold Pivot
// Scheme (TPS) for anonymous DTN routing [Jansen & Beverly 2011] that
// the paper discusses as the main alternative to onion groups
// (Sec. VI-C). A secret is split into n shares such that any k shares
// reconstruct it and any k-1 shares reveal nothing.
//
// Each byte of the secret is shared independently: share j carries the
// evaluations of per-byte random polynomials of degree k-1 at the
// nonzero field point x_j.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// Share is one fragment of a split secret.
type Share struct {
	X uint8  // evaluation point, unique per share, never zero
	Y []byte // one evaluation per secret byte
}

// MaxShares is the largest supported n (nonzero points of GF(2^8)).
const MaxShares = 255

// Split divides secret into n shares with reconstruction threshold k.
// It draws randomness from crypto/rand.
func Split(secret []byte, n, k int) ([]Share, error) {
	return splitWithRand(secret, n, k, rand.Reader)
}

func splitWithRand(secret []byte, n, k int, rnd io.Reader) ([]Share, error) {
	switch {
	case len(secret) == 0:
		return nil, errors.New("shamir: empty secret")
	case k < 1:
		return nil, fmt.Errorf("shamir: threshold %d must be >= 1", k)
	case n < k:
		return nil, fmt.Errorf("shamir: cannot make %d shares with threshold %d", n, k)
	case n > MaxShares:
		return nil, fmt.Errorf("shamir: at most %d shares, requested %d", MaxShares, n)
	}
	shares := make([]Share, n)
	for j := range shares {
		shares[j] = Share{X: uint8(j + 1), Y: make([]byte, len(secret))}
	}
	coeffs := make([]byte, k-1)
	for i, b := range secret {
		if _, err := io.ReadFull(rnd, coeffs); err != nil {
			return nil, fmt.Errorf("shamir: randomness: %w", err)
		}
		for j := range shares {
			shares[j].Y[i] = evalPoly(b, coeffs, shares[j].X)
		}
	}
	return shares, nil
}

// Combine reconstructs the secret from at least k distinct shares
// produced by Split with threshold k. Passing fewer shares than the
// threshold yields garbage (by design, it is indistinguishable from
// random), so callers must track k themselves.
func Combine(shares []Share) ([]byte, error) {
	if len(shares) == 0 {
		return nil, errors.New("shamir: no shares")
	}
	length := len(shares[0].Y)
	seen := make(map[uint8]bool, len(shares))
	for _, s := range shares {
		if s.X == 0 {
			return nil, errors.New("shamir: share with x = 0")
		}
		if seen[s.X] {
			return nil, fmt.Errorf("shamir: duplicate share point %d", s.X)
		}
		seen[s.X] = true
		if len(s.Y) != length {
			return nil, fmt.Errorf("shamir: share length mismatch: %d vs %d", len(s.Y), length)
		}
	}
	// The Lagrange basis at x = 0 depends only on the share points, so
	// it is computed once and applied to every secret byte.
	basis := make([]byte, len(shares))
	for j, sj := range shares {
		num, den := byte(1), byte(1)
		for m, sm := range shares {
			if m == j {
				continue
			}
			num = gfMul(num, sm.X)
			den = gfMul(den, sj.X^sm.X)
		}
		basis[j] = gfMul(num, gfInv(den))
	}
	secret := make([]byte, length)
	for j, sj := range shares {
		for i, y := range sj.Y {
			secret[i] ^= gfMul(y, basis[j])
		}
	}
	return secret, nil
}

// evalPoly evaluates secret + c_1 x + ... + c_{k-1} x^{k-1} at x.
func evalPoly(secret byte, coeffs []byte, x uint8) byte {
	// Horner's rule from the highest coefficient down.
	v := byte(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = gfMul(v, x) ^ coeffs[i]
	}
	return gfMul(v, x) ^ secret
}

// gfMul multiplies in GF(2^8) with the AES reduction polynomial
// x^8 + x^4 + x^3 + x + 1 (0x11b).
func gfMul(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 == 1 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// gfInv returns the multiplicative inverse in GF(2^8); it panics on
// zero (division by zero is a caller bug: share points are distinct).
func gfInv(a byte) byte {
	if a == 0 {
		panic("shamir: inverse of zero")
	}
	// a^254 = a^-1 by Fermat's little theorem for GF(2^8).
	result := byte(1)
	base := a
	for e := 254; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = gfMul(result, base)
		}
		base = gfMul(base, base)
	}
	return result
}
