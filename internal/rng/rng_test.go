package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/64 draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 10; i++ {
		a.Uint64() // consume a but not b
	}
	ca, cb := a.Split("child"), b.Split("child")
	for i := 0; i < 50; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("split children depend on parent consumption")
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	s := New(7)
	a, b := s.Split("alpha"), s.Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently labelled children matched %d/64 draws", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	s := New(9)
	seen := map[uint64]int{}
	for n := 0; n < 100; n++ {
		v := s.SplitN("run", n).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("SplitN(run,%d) first draw collides with n=%d", n, prev)
		}
		seen[v] = n
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const rate = 0.25
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05*(1/rate) {
		t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(5)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency %v", p, f)
	}
}

func TestSampleProperties(t *testing.T) {
	s := New(13)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%100) + 1
		k := int(rawK) % (n + 1)
		got := s.Sample(n, k)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSparsePath(t *testing.T) {
	s := New(17)
	const n, k = 100000, 10 // triggers the sparse branch
	got := s.Sample(n, k)
	if len(got) != k {
		t.Fatalf("len = %d, want %d", len(got), k)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= n {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleUniformity(t *testing.T) {
	s := New(19)
	const n, k, trials = 10, 3, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials*k) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("value %d drawn %d times, want ~%v", v, c, want)
		}
	}
}

func TestPickOther(t *testing.T) {
	s := New(23)
	for avoid := 0; avoid < 5; avoid++ {
		for i := 0; i < 1000; i++ {
			v := s.PickOther(5, avoid)
			if v == avoid || v < 0 || v >= 5 {
				t.Fatalf("PickOther(5,%d) = %d", avoid, v)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm(50) invalid: %v", p)
		}
		seen[v] = true
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(0.5)
	}
}

func BenchmarkSampleDense(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Sample(100, 10)
	}
}

func BenchmarkSampleSparse(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Sample(100000, 5)
	}
}
