package contact

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestNewRejectsBadNodeCounts(t *testing.T) {
	for _, n := range []int{0, -1, -1 << 40, MaxNodes + 1, 1 << 40} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
	if _, err := New(MaxNodes); err != nil {
		t.Errorf("New(MaxNodes): %v", err)
	}
}

func TestNewGraphPanicsBeyondMaxNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGraph(MaxNodes+1) should panic")
		}
	}()
	NewGraph(MaxNodes + 1)
}

// setOp is one SetRate call.
type setOp struct {
	i, j NodeID
	r    float64
}

// allPairs lists a SetRate for every pair of distinct nodes in
// ascending (i, j) order, each with its own rate.
func allPairs(n int) []setOp {
	var ops []setOp
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ops = append(ops, setOp{NodeID(i), NodeID(j), float64(i*n+j+1) / 1024})
		}
	}
	return ops
}

// shuffled returns ops in a seeded random order, with every other
// pair given in the mirrored orientation.
func shuffled(ops []setOp, seed uint64) []setOp {
	out := make([]setOp, len(ops))
	for k, p := range rng.New(seed).Perm(len(ops)) {
		out[k] = ops[p]
		if k%2 == 1 {
			out[k].i, out[k].j = out[k].j, out[k].i
		}
	}
	return out
}

// TestRateMatchesSetRateReference checks Rate for every (i, j),
// Pairs and Validate against a plain map of the SetRate calls. The
// cases cover complete rows (read by direct index), a complete row
// that loses an edge (read by binary search again), empty rows, and
// insertion in every order.
func TestRateMatchesSetRateReference(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		ops   []setOp
		full  []NodeID // rows that must end up complete
		short []NodeID // rows that must end up one short of complete
	}{
		{name: "n1", n: 1, full: []NodeID{0}},
		{name: "n2 empty", n: 2},
		{name: "n2 complete", n: 2, ops: allPairs(2), full: []NodeID{0, 1}},
		{name: "n2 removed", n: 2, ops: append(allPairs(2), setOp{1, 0, 0})},
		{name: "n3 complete", n: 3, ops: allPairs(3), full: []NodeID{0, 1, 2}},
		{name: "n3 shuffled", n: 3, ops: shuffled(allPairs(3), 3), full: []NodeID{0, 1, 2}},
		{name: "n3 one edge", n: 3, ops: []setOp{{2, 0, 0.5}}},
		{name: "n12 complete", n: 12, ops: allPairs(12), full: []NodeID{0, 5, 11}},
		{name: "n12 complete then one removed", n: 12,
			ops: append(allPairs(12), setOp{7, 3, 0}), full: []NodeID{0, 11}, short: []NodeID{3, 7}},
		{name: "n12 removed then restored", n: 12,
			ops: append(allPairs(12), setOp{3, 7, 0}, setOp{7, 3, 2}), full: []NodeID{3, 7}},
		{name: "n12 overwritten", n: 12,
			ops: append(allPairs(12), setOp{0, 11, 9}, setOp{6, 5, 8}), full: []NodeID{0, 5, 6, 11}},
		{name: "n12 empty rows", n: 12, ops: allPairs(6)},
		{name: "n12 shuffled", n: 12, ops: shuffled(allPairs(12), 12), full: []NodeID{0, 6, 11}},
		{name: "n100 complete", n: 100, ops: allPairs(100), full: []NodeID{0, 50, 99}},
		{name: "n100 shuffled then one removed", n: 100,
			ops: append(shuffled(allPairs(100), 100), setOp{99, 0, 0}), full: []NodeID{50}, short: []NodeID{0, 99}},
		{name: "n100 shuffled half", n: 100, ops: shuffled(allPairs(100), 7)[:2475]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(tc.n)
			ref := map[[2]NodeID]float64{}
			for _, op := range tc.ops {
				g.SetRate(op.i, op.j, op.r)
				key := [2]NodeID{min(op.i, op.j), max(op.i, op.j)}
				if op.r == 0 {
					delete(ref, key)
				} else {
					ref[key] = op.r
				}
			}
			checkAgainstReference(t, g, ref)
			for _, i := range tc.full {
				if len(g.adj[i]) != tc.n-1 {
					t.Errorf("row %d has %d peers, want a complete row of %d", i, len(g.adj[i]), tc.n-1)
				}
			}
			for _, i := range tc.short {
				if len(g.adj[i]) != tc.n-2 {
					t.Errorf("row %d has %d peers, want %d", i, len(g.adj[i]), tc.n-2)
				}
			}
		})
	}
}

// TestNewRandomMatchesReference builds the reference from the same
// stream draws NewRandom makes, then removes and restores an edge in
// the rows NewRandom preallocated.
func TestNewRandomMatchesReference(t *testing.T) {
	const n = 100
	g := NewRandom(n, 1, 360, rng.New(5))
	s := rng.New(5)
	ref := map[[2]NodeID]float64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ref[[2]NodeID{NodeID(i), NodeID(j)}] = 1 / s.Uniform(1, 360)
		}
	}
	checkAgainstReference(t, g, ref)

	g.SetRate(40, 41, 0)
	delete(ref, [2]NodeID{40, 41})
	checkAgainstReference(t, g, ref)
	g.SetRate(41, 40, 0.5)
	ref[[2]NodeID{40, 41}] = 0.5
	checkAgainstReference(t, g, ref)
}

// checkAgainstReference compares Rate over all (i, j), the Pairs
// sequence and Validate with ref, keyed by the ordered pair.
func checkAgainstReference(t *testing.T, g *Graph, ref map[[2]NodeID]float64) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := NodeID(g.N())
	for i := NodeID(0); i < n; i++ {
		for j := NodeID(0); j < n; j++ {
			want := ref[[2]NodeID{min(i, j), max(i, j)}]
			if got := g.Rate(i, j); got != want {
				t.Fatalf("Rate(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	seen, last := 0, NodeID(-1)
	g.Pairs(func(i, j NodeID, r float64) {
		if want, ok := ref[[2]NodeID{i, j}]; !ok || r != want {
			t.Fatalf("Pairs yielded (%d,%d) at %v, want %v (present %v)", i, j, r, want, ok)
		}
		if i*n+j <= last {
			t.Fatalf("Pairs yielded (%d,%d) out of (i, j) order", i, j)
		}
		seen, last = seen+1, i*n+j
	})
	if seen != len(ref) {
		t.Fatalf("Pairs yielded %d pairs, want %d", seen, len(ref))
	}
}

// TestSparseSetRateRemoval covers the delete path: setting a rate to
// zero removes the edge from both directed lists.
func TestSparseSetRateRemoval(t *testing.T) {
	g := NewGraph(5)
	g.SetRate(1, 3, 0.5)
	g.SetRate(1, 2, 0.25)
	g.SetRate(1, 4, 0.125)
	g.SetRate(3, 1, 0) // remove via the mirrored orientation
	if got := g.Rate(1, 3); got != 0 {
		t.Fatalf("removed rate = %v, want 0", got)
	}
	if got := g.Rate(3, 1); got != 0 {
		t.Fatalf("removed mirrored rate = %v, want 0", got)
	}
	var pairs []string
	g.Pairs(func(i, j NodeID, r float64) { pairs = append(pairs, fmt.Sprintf("%d-%d:%v", i, j, r)) })
	if got, want := strings.Join(pairs, " "), "1-2:0.25 1-4:0.125"; got != want {
		t.Fatalf("after removal Pairs = %q, want %q", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Removing a non-existent edge is a no-op.
	g.SetRate(0, 4, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseInsertionOrderIndependent asserts the adjacency structure
// is canonical regardless of SetRate order (EstimateRates feeds edges
// in random map order).
func TestSparseInsertionOrderIndependent(t *testing.T) {
	type e struct {
		i, j NodeID
		r    float64
	}
	edges := []e{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {1, 3, 4}, {2, 3, 5}, {1, 2, 6}}
	s := rng.New(9)
	var ref []byte
	for trial := 0; trial < 10; trial++ {
		perm := s.Perm(len(edges))
		g := NewGraph(4)
		for _, k := range perm {
			g.SetRate(edges[k].i, edges[k].j, edges[k].r)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("insertion order %v produced a different graph", perm)
		}
	}
}

// FuzzReadGraph parses arbitrary input: an accepted graph must pass
// Validate, and writing it, reading that back and writing again must
// reproduce the first written bytes.
func FuzzReadGraph(f *testing.F) {
	f.Add("nodes 3\n0 1 0.5\n1 2 0.25\n")
	f.Add("nodes 3\n0 1 0.5\n0 1 0.75\n") // duplicate edge: last wins
	f.Add("nodes 2\n0 0 1\n")             // self loop: reject
	f.Add("nodes 3\n0 1 0.5\n1 2")        // torn final line
	f.Add("nodes 99999999999\n")          // absurd header: reject, no OOM
	f.Add("nodes 16777217\n")             // MaxNodes+1
	f.Add("# comment\n\nnodes 2\n0 1 1e-9\n")
	f.Add("nodes 2\n0 1 NaN\n")
	f.Add("nodes 2\n0 1 -1\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		// The graph allocates one row header per node, and WriteTo
		// writes a header for the count: cap what this harness is
		// willing to materialize per input.
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var v int
			if n, err := fmt.Sscanf(line, "nodes %d", &v); n == 1 && err == nil && v > 1<<16 {
				return
			}
			break
		}
		g, err := ReadGraph(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraph(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written graph does not parse: %v", err)
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteTo -> ReadGraph -> WriteTo changed the bytes")
		}
	})
}
