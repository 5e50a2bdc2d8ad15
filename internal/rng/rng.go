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
	"math/bits"
	"math/rand/v2"
)

// Stream is a deterministic random stream. The zero value is not
// usable until seeded: construct streams with New, Split or SplitN, or
// reseed an existing Stream in place with SplitInto or SplitNInto.
//
// A Stream holds its PCG source and the rand.Rand over it by value, so
// a new stream is one allocation and an in-place split none; src
// points into the same struct. A Stream must therefore stay where it
// was seeded and be used through a pointer to it, never copied. A
// Stream embedded in a longer-lived struct may be reseeded any number
// of times, each in-place split giving exactly the child Split or
// SplitN would return.
type Stream struct {
	pcg rand.PCG
	src rand.Rand
	// seed material retained so the stream can be split.
	hi, lo uint64
}

// New returns a stream seeded from the given root seed.
func New(seed uint64) *Stream {
	hi := splitmix(seed)
	return newStream(hi, splitmix(hi^0x9e3779b97f4a7c15))
}

func newStream(hi, lo uint64) *Stream {
	s := new(Stream)
	s.seed(hi, lo)
	return s
}

func (s *Stream) seed(hi, lo uint64) {
	s.hi, s.lo = hi, lo
	s.pcg.Seed(hi, lo)
	s.src = *rand.New(&s.pcg)
}

// Split derives an independent child stream identified by label.
// Splitting is deterministic: the same parent seed and label always
// yield the same child, regardless of how much the parent has been
// consumed.
func (s *Stream) Split(label string) *Stream { return s.child(labelHash(label)) }

// SplitN derives an independent child stream identified by label and an
// index, for families of streams (one per run, one per node, ...).
func (s *Stream) SplitN(label string, n int) *Stream { return s.child(indexedLabel(label, n)) }

// SplitInto reseeds dst as the child Split(label) returns, without
// allocating. dst may be s itself.
func (s *Stream) SplitInto(dst *Stream, label string) { dst.seed(s.childSeed(labelHash(label))) }

// SplitNInto reseeds dst as the child SplitN(label, n) returns, without
// allocating. dst may be s itself.
func (s *Stream) SplitNInto(dst *Stream, label string, n int) {
	dst.seed(s.childSeed(indexedLabel(label, n)))
}

func (s *Stream) child(d uint64) *Stream { return newStream(s.childSeed(d)) }

func (s *Stream) childSeed(d uint64) (hi, lo uint64) {
	return splitmix(s.hi ^ d), splitmix(s.lo ^ bits.Reverse64(d))
}

// indexedLabel is the split material of label and index n.
func indexedLabel(label string, n int) uint64 {
	return labelHash(label) ^ splitmix(uint64(n)+0x51ed2701)
}

// labelHash is 64-bit FNV-1a (hash/fnv's New64a) over the label's
// bytes, inlined so a split allocates nothing but the child.
func labelHash(label string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h
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
//
// All three paths run the same partial Fisher-Yates shuffle of the
// table [0, n): step i draws j = i + IntN(n-i) and swaps entries i and
// j, and the result is the first k entries. They differ only in how
// the table is stored, so they make the same draws and return the same
// values for any (n, k).
func (s *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Small k relative to n: a virtual table whose displaced entries fit
	// a fixed record on the stack.
	if k <= smallSample && 4*k < n {
		return s.sampleSmall(n, k)
	}
	// Large n: a virtual table whose displaced entries live in a map,
	// to avoid allocating n ints.
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
	return idx[:k:k]
}

// smallSample is the largest k sampleSmall takes: the size of its swap
// record.
const smallSample = 16

// sampleSmall is Sample's Fisher-Yates over a virtual table in which
// entry p holds p unless the swap record lists it. Step i displaces at
// most one entry (j's), so k steps need at most k records.
func (s *Stream) sampleSmall(n, k int) []int {
	var pos, val [smallSample]int
	m := 0
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.src.IntN(n-i)
		vi, vj, rj := i, j, -1
		for r := 0; r < m; r++ {
			if pos[r] == i {
				vi = val[r]
			}
			if pos[r] == j {
				vj, rj = val[r], r
			}
		}
		out[i] = vj
		if rj < 0 {
			rj = m
			pos[m] = j
			m++
		}
		val[rj] = vi
	}
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

// SampleTable is a reusable table [0, n) for Sample's draws without
// allocation once it has grown to the largest n drawn from. Outside a
// draw it is the identity; Draw permutes a prefix of it and Undo puts
// it back. A SampleTable is not safe for concurrent use.
type SampleTable struct {
	idx   []int // idx[p] == p outside a draw
	swaps []int // the j each step of the current draw swapped with
}

// Draw makes exactly the draws Sample(n, k) makes on s and returns the
// same values, as a view into the table that stays valid until Undo.
// It panics if k > n or k < 0, or if the previous draw was not undone.
func (t *SampleTable) Draw(s *Stream, n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	if len(t.swaps) != 0 {
		panic("rng: SampleTable.Draw before Undo")
	}
	for p := len(t.idx); p < n; p++ {
		t.idx = append(t.idx, p)
	}
	idx := t.idx
	for i := 0; i < k; i++ {
		j := i + s.src.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		t.swaps = append(t.swaps, j)
	}
	return idx[:k:k]
}

// Undo restores the identity by replaying the last draw's swaps in
// reverse.
func (t *SampleTable) Undo() {
	for i := len(t.swaps) - 1; i >= 0; i-- {
		j := t.swaps[i]
		t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
	}
	t.swaps = t.swaps[:0]
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
