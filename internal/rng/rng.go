// Package rng provides deterministic, splittable random number streams
// used throughout the simulator and the experiment harness.
//
// Reproducibility is a first-class requirement: every experiment in the
// paper reproduction is driven by a root seed, and every independent
// consumer (contact process, group selection, adversary, ...) derives
// its own stream so that adding a new consumer never perturbs existing
// ones. Streams are backed by PCG from math/rand/v2.
package rng

import (
	"hash/fnv"
	"math/rand/v2"
)

// Stream is a deterministic random stream. The zero value is not
// usable; construct streams with New or Split.
type Stream struct {
	src *rand.Rand
	// seed material retained so the stream can be split.
	hi, lo uint64
}

// New returns a stream seeded from the given root seed.
func New(seed uint64) *Stream {
	hi := splitmix(seed)
	lo := splitmix(hi ^ 0x9e3779b97f4a7c15)
	return &Stream{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Split derives an independent child stream identified by label.
// Splitting is deterministic: the same parent seed and label always
// yield the same child, regardless of how much the parent has been
// consumed.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	d := h.Sum64()
	hi := splitmix(s.hi ^ d)
	lo := splitmix(s.lo ^ bitreverse(d))
	return &Stream{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// SplitN derives an independent child stream identified by label and an
// index, for families of streams (one per run, one per node, ...).
func (s *Stream) SplitN(label string, n int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	d := h.Sum64() ^ splitmix(uint64(n)+0x51ed2701)
	hi := splitmix(s.hi ^ d)
	lo := splitmix(s.lo ^ bitreverse(d))
	return &Stream{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.src.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.src.Uint64() }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	return s.src.ExpFloat64() / rate
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.src.Float64()
}

// Bernoulli reports true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return s.src.Float64() < p
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.src.Shuffle(n, swap) }

// Sample returns k distinct integers drawn uniformly from [0, n).
// It panics if k > n or k < 0.
func (s *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher-Yates over an index table; O(n) space, O(k) swaps
	// once the table exists. For small k relative to n use a map-based
	// virtual table to avoid allocating n ints.
	if n > 4096 && k*8 < n {
		return s.sampleSparse(n, k)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.src.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

func (s *Stream) sampleSparse(n, k int) []int {
	repl := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.src.IntN(n-i)
		vi, ok := repl[i]
		if !ok {
			vi = i
		}
		vj, ok := repl[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		repl[j] = vi
	}
	return out
}

// PickOther returns a uniform integer in [0, n) different from avoid.
// It panics if n < 2.
func (s *Stream) PickOther(n, avoid int) int {
	if n < 2 {
		panic("rng: PickOther requires n >= 2")
	}
	v := s.src.IntN(n - 1)
	if v >= avoid {
		v++
	}
	return v
}

// splitmix is the SplitMix64 finalizer, used to expand seed material.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func bitreverse(x uint64) uint64 {
	var r uint64
	for i := 0; i < 64; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}
