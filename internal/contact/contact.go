// Package contact models a delay tolerant network as a contact graph
// (Sec. III-A of the paper): n nodes, and for each pair (v_i, v_j) an
// exponential inter-contact process with rate lambda_{i,j}. The package
// also computes the group-aggregated per-hop rates lambda_k of Eq. 4
// that drive the opportunistic onion path model.
//
// The graph is stored as per-node neighbor lists sorted by peer ID
// (CSR-style), so memory is O(n + pairs): the paper's complete
// 12-100-node graphs and city-scale populations (10^4-10^6 nodes with
// a few dozen peers each) share one representation.
package contact

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// NodeID identifies a node in the contact graph, in [0, N).
type NodeID int

// MaxNodes bounds graph populations. The graph allocates one
// neighbor-list header per node, so an absurd node count (e.g. from a
// corrupt graph file header) must be rejected before allocation, not
// OOM-killed after.
const MaxNodes = 1 << 24

// edge is one adjacency entry: the peer and the pair rate.
type edge struct {
	to   NodeID
	rate float64
}

// Graph is a symmetric contact-rate structure over n nodes. The rate
// of the (i, j) pair is the inverse of the mean inter-contact time; a
// rate of zero means the pair never meets and is not stored.
type Graph struct {
	n   int
	adj [][]edge // per-node neighbor lists, sorted ascending by to
}

// New returns a graph with n nodes and no contacts. It returns an
// error for non-positive n or n beyond MaxNodes, so large n cannot
// exhaust memory.
func New(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("contact: graph needs at least one node, got %d", n)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("contact: %d nodes exceeds the supported maximum %d", n, MaxNodes)
	}
	return &Graph{n: n, adj: make([][]edge, n)}, nil
}

// NewGraph returns a graph with n nodes and no contacts. It panics on
// invalid n; use New to handle untrusted node counts gracefully.
func NewGraph(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// NewRandom generates the paper's random contact graph: every pair of
// distinct nodes meets, with mean inter-contact time drawn uniformly
// from [minICT, maxICT) (Table II uses 1 to 360 minutes). It panics on
// invalid bounds.
func NewRandom(n int, minICT, maxICT float64, s *rng.Stream) *Graph {
	if minICT <= 0 || maxICT <= minICT {
		panic(fmt.Sprintf("contact: invalid ICT bounds [%v, %v)", minICT, maxICT))
	}
	g := NewGraph(n)
	// Every row fills to n-1 peers: carve the rows out of one slab, each
	// capped so an append can never spill into the next row.
	slab := make([]edge, n*(n-1))
	for i := range g.adj {
		lo := i * (n - 1)
		g.adj[i] = slab[lo : lo : lo+n-1]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ict := s.Uniform(minICT, maxICT)
			g.SetRate(NodeID(i), NodeID(j), 1/ict)
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// findEdge binary-searches a sorted neighbor list for peer j and
// returns its index and whether it is present.
func findEdge(es []edge, j NodeID) (int, bool) {
	pos := sort.Search(len(es), func(k int) bool { return es[k].to >= j })
	return pos, pos < len(es) && es[pos].to == j
}

// Rate returns lambda_{i,j}. The diagonal is always zero.
func (g *Graph) Rate(i, j NodeID) float64 {
	g.check(i)
	g.check(j)
	es := g.adj[i]
	if len(es) == g.n-1 {
		// A complete row lists every node but i in order, so j sits at
		// index j below the diagonal and j-1 above it.
		switch {
		case j < i:
			return es[j].rate
		case j > i:
			return es[j-1].rate
		}
		return 0
	}
	if pos, ok := findEdge(es, j); ok {
		return es[pos].rate
	}
	return 0
}

// SetRate sets lambda_{i,j} = lambda_{j,i} = r. It panics on negative
// rates, out-of-range nodes, or i == j with r != 0. Setting a rate to
// zero removes the pair.
func (g *Graph) SetRate(i, j NodeID, r float64) {
	g.check(i)
	g.check(j)
	if r < 0 {
		panic("contact: negative rate")
	}
	if i == j {
		if r != 0 {
			panic("contact: self-contact rate must be zero")
		}
		return
	}
	g.setSparse(i, j, r)
	g.setSparse(j, i, r)
}

// setSparse updates the directed entry i -> j in the sorted neighbor
// list, inserting, overwriting or removing as needed.
func (g *Graph) setSparse(i, j NodeID, r float64) {
	es := g.adj[i]
	if r > 0 && (len(es) == 0 || es[len(es)-1].to < j) {
		// The new peer sorts last: the common case when rows are built
		// in ascending order (NewRandom, ReadGraph of a written graph).
		g.adj[i] = append(es, edge{to: j, rate: r})
		return
	}
	pos, ok := findEdge(es, j)
	switch {
	case ok && r == 0:
		g.adj[i] = append(es[:pos], es[pos+1:]...)
	case ok:
		es[pos].rate = r
	case r > 0:
		es = append(es, edge{})
		copy(es[pos+1:], es[pos:])
		es[pos] = edge{to: j, rate: r}
		g.adj[i] = es
	}
}

// Pairs invokes fn for every unordered pair with a positive rate, in
// (i, j) lexicographic order.
func (g *Graph) Pairs(fn func(i, j NodeID, rate float64)) {
	for i := 0; i < g.n; i++ {
		for _, e := range g.adj[i] {
			if e.to > NodeID(i) && e.rate > 0 {
				fn(NodeID(i), e.to, e.rate)
			}
		}
	}
}

// TotalRate returns the sum of rates from node i to every node in set,
// skipping i itself: the aggregate contact rate toward a candidate
// onion group (the building block of Eq. 4). Summation follows set
// order.
func (g *Graph) TotalRate(i NodeID, set []NodeID) float64 {
	g.check(i)
	sum := 0.0
	for _, j := range set {
		if j == i {
			continue
		}
		sum += g.Rate(i, j)
	}
	return sum
}

func (g *Graph) check(i NodeID) {
	if i < 0 || int(i) >= g.n {
		panic(fmt.Sprintf("contact: node %d out of range [0, %d)", i, g.n))
	}
}

// Validate checks structural invariants (symmetry, zero diagonal,
// non-negative rates, sorted duplicate-free adjacency) and returns the
// first violation found.
func (g *Graph) Validate() error {
	for i, es := range g.adj {
		prev := NodeID(-1)
		for _, e := range es {
			if e.to <= prev {
				return fmt.Errorf("contact: unsorted or duplicate adjacency at node %d", i)
			}
			prev = e.to
			if e.to < 0 || int(e.to) >= g.n {
				return fmt.Errorf("contact: node %d lists out-of-range peer %d", i, e.to)
			}
			if int(e.to) == i {
				return fmt.Errorf("contact: non-zero self rate at node %d", i)
			}
			if e.rate < 0 {
				return fmt.Errorf("contact: negative rate (%d,%d): %v", i, e.to, e.rate)
			}
			pos, ok := findEdge(g.adj[e.to], NodeID(i))
			if !ok || g.adj[e.to][pos].rate != e.rate {
				return fmt.Errorf("contact: asymmetric rate (%d,%d)", i, e.to)
			}
		}
	}
	return nil
}

// GroupPathRates computes the per-hop aggregate rates lambda_k of
// Eq. 4 for the opportunistic onion path
//
//	src -> R_1 -> R_2 -> ... -> R_K -> dst:
//
//	lambda_1     = sum_j lambda_{src, r_{1,j}}
//	lambda_k     = (1/|R_{k-1}|) sum_i sum_j lambda_{r_{k-1,i}, r_{k,j}}   (2 <= k <= K)
//	lambda_{K+1} = sum_j lambda_{r_{K,j}, dst}
//
// The returned slice has length K+1 (the hop count eta). An error is
// returned if any hop has zero aggregate rate, i.e. the onion path can
// never complete.
func GroupPathRates(g *Graph, src, dst NodeID, groups [][]NodeID) ([]float64, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("contact: onion path requires at least one group")
	}
	eta := len(groups) + 1
	rates := make([]float64, 0, eta)

	first := g.TotalRate(src, groups[0])
	rates = append(rates, first)

	for k := 1; k < len(groups); k++ {
		prev, next := groups[k-1], groups[k]
		if len(prev) == 0 {
			return nil, fmt.Errorf("contact: empty onion group at hop %d", k)
		}
		sum := 0.0
		for _, i := range prev {
			sum += g.TotalRate(i, next)
		}
		rates = append(rates, sum/float64(len(prev)))
	}

	last := 0.0
	for _, j := range groups[len(groups)-1] {
		if j == dst {
			continue
		}
		last += g.Rate(j, dst)
	}
	rates = append(rates, last)

	for k, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("contact: hop %d of the onion path has zero aggregate rate", k+1)
		}
	}
	return rates, nil
}
