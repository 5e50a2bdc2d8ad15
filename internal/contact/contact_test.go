package contact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(3)
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if g.Rate(NodeID(i), NodeID(j)) != 0 {
				t.Fatal("new graph should have zero rates")
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewGraphPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGraph(0)
}

func TestSetRateSymmetric(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(1, 3, 0.25)
	if g.Rate(1, 3) != 0.25 || g.Rate(3, 1) != 0.25 {
		t.Fatal("rate not symmetric")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetRateSelfZeroAllowed(t *testing.T) {
	g := NewGraph(2)
	g.SetRate(1, 1, 0) // no-op, allowed
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-zero self rate")
		}
	}()
	g.SetRate(1, 1, 0.5)
}

func TestSetRatePanicsNegative(t *testing.T) {
	g := NewGraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative rate")
		}
	}()
	g.SetRate(0, 1, -1)
}

func TestRatePanicsOutOfRange(t *testing.T) {
	g := NewGraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range node")
		}
	}()
	g.Rate(0, 5)
}

func TestNewRandomRateBounds(t *testing.T) {
	s := rng.New(1)
	g := NewRandom(30, 1, 360, s)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Pairs(func(i, j NodeID, r float64) {
		ict := 1 / r
		if ict < 1 || ict >= 360 {
			t.Fatalf("pair (%d,%d) ICT %v out of [1,360)", i, j, ict)
		}
	})
	// Fully connected: every pair has a rate.
	cnt := 0
	g.Pairs(func(_, _ NodeID, _ float64) { cnt++ })
	if cnt != 30*29/2 {
		t.Fatalf("pair count %d, want %d", cnt, 30*29/2)
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(10, 1, 360, rng.New(7))
	b := NewRandom(10, 1, 360, rng.New(7))
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if a.Rate(NodeID(i), NodeID(j)) != b.Rate(NodeID(i), NodeID(j)) {
				t.Fatal("same seed produced different graphs")
			}
		}
	}
}

func TestNewRandomPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRandom(5, 10, 5, rng.New(1))
}

func TestTotalRateSkipsSelf(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(0, 1, 0.5)
	g.SetRate(0, 2, 0.25)
	set := []NodeID{0, 1, 2} // includes the node itself
	if got := g.TotalRate(0, set); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("TotalRate = %v, want 0.75", got)
	}
}

func TestGroupPathRatesManual(t *testing.T) {
	// 6 nodes: s=0, d=5, R1={1,2}, R2={3,4}.
	g := NewGraph(6)
	g.SetRate(0, 1, 0.1)
	g.SetRate(0, 2, 0.2)
	g.SetRate(1, 3, 0.3)
	g.SetRate(1, 4, 0.4)
	g.SetRate(2, 3, 0.5)
	g.SetRate(2, 4, 0.6)
	g.SetRate(3, 5, 0.7)
	g.SetRate(4, 5, 0.8)
	groups := [][]NodeID{{1, 2}, {3, 4}}
	rates, err := GroupPathRates(g, 0, 5, groups)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		0.1 + 0.2,                   // lambda_1: s to R1
		(0.3 + 0.4 + 0.5 + 0.6) / 2, // lambda_2: mean over R1 of sums to R2
		0.7 + 0.8,                   // lambda_3: R2 to d
	}
	if len(rates) != len(want) {
		t.Fatalf("got %d rates, want %d", len(rates), len(want))
	}
	for k := range want {
		if math.Abs(rates[k]-want[k]) > 1e-12 {
			t.Fatalf("lambda_%d = %v, want %v", k+1, rates[k], want[k])
		}
	}
}

func TestGroupPathRatesZeroHopError(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(0, 1, 1)
	// R1={1}, but node 1 never meets d=3.
	if _, err := GroupPathRates(g, 0, 3, [][]NodeID{{1}}); err == nil {
		t.Fatal("expected error for unreachable destination")
	}
}

func TestGroupPathRatesEmptyGroups(t *testing.T) {
	g := NewGraph(3)
	if _, err := GroupPathRates(g, 0, 2, nil); err == nil {
		t.Fatal("expected error for no groups")
	}
	if _, err := GroupPathRates(g, 0, 2, [][]NodeID{{1}, {}}); err == nil {
		t.Fatal("expected error for empty group")
	}
}

func TestGroupPathRatesLengthProperty(t *testing.T) {
	s := rng.New(11)
	f := func(rawK, rawG uint8) bool {
		k := int(rawK%5) + 1
		gs := int(rawG%4) + 1
		n := 2 + k*gs
		g := NewRandom(n, 1, 100, s.SplitN("g", int(rawK)*17+int(rawG)))
		groups := make([][]NodeID, k)
		id := 1
		for i := range groups {
			for j := 0; j < gs; j++ {
				groups[i] = append(groups[i], NodeID(id))
				id++
			}
		}
		rates, err := GroupPathRates(g, 0, NodeID(n-1), groups)
		if err != nil {
			return false
		}
		if len(rates) != k+1 {
			return false
		}
		for _, r := range rates {
			if r <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupPathRatesExcludesDestinationInLastGroup(t *testing.T) {
	// If the destination happens to be listed in the last group its
	// self-rate must not contribute.
	g := NewGraph(3)
	g.SetRate(0, 1, 1)
	g.SetRate(1, 2, 2)
	rates, err := GroupPathRates(g, 0, 2, [][]NodeID{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[1]-2) > 1e-12 {
		t.Fatalf("last hop rate %v, want 2 (dst excluded)", rates[1])
	}
}

func BenchmarkNewRandom100(b *testing.B) {
	s := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = NewRandom(100, 1, 360, s)
	}
}

func BenchmarkGroupPathRates(b *testing.B) {
	s := rng.New(1)
	g := NewRandom(100, 1, 360, s)
	groups := [][]NodeID{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = GroupPathRates(g, 0, 99, groups)
	}
}
