// Package adversary implements the paper's threat model (Sec. IV-D/E):
// a fraction c/n of nodes is compromised; a compromised node holding a
// message discloses the link to its next hop (traceable rate, Eq. 1)
// and confines the next onion router to its group of g candidates
// (path anonymity, Eq. 16).
//
// Security metrics can be measured two ways, which the tests verify
// agree: the honest mode evaluates realized routing.CopyTrace paths
// from actual simulations; the fast mode samples sender sequences
// directly, which is valid because both metrics are independent of the
// contact-graph realization (Sec. V-A).
package adversary

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
)

// Adversary is a set of compromised nodes within an n-node network.
type Adversary struct {
	n           int
	compromised []bool // indexed by node; length n
}

// New builds an adversary controlling exactly the given nodes.
func New(n int, nodes []contact.NodeID) (*Adversary, error) {
	if n < 1 {
		return nil, fmt.Errorf("adversary: need at least one node, got %d", n)
	}
	a := &Adversary{n: n, compromised: make([]bool, n)}
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("adversary: node %d out of range [0, %d)", v, n)
		}
		a.compromised[v] = true
	}
	return a, nil
}

// Random builds an adversary controlling c distinct nodes chosen
// uniformly at random.
func Random(n, c int, s *rng.Stream) (*Adversary, error) {
	if c < 0 || c > n {
		return nil, fmt.Errorf("adversary: cannot compromise %d of %d nodes", c, n)
	}
	a, err := New(n, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range s.Sample(n, c) {
		a.compromised[v] = true
	}
	return a, nil
}

// RandomFraction compromises round(frac*n) nodes (the paper sweeps
// c/n from 1% to 50%).
func RandomFraction(n int, frac float64, s *rng.Stream) (*Adversary, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("adversary: fraction %v out of [0,1]", frac)
	}
	c := int(frac*float64(n) + 0.5)
	return Random(n, c, s)
}

// IsCompromised reports whether node v is controlled by the adversary.
// A node outside [0, n) is not.
func (a *Adversary) IsCompromised(v contact.NodeID) bool {
	return uint(v) < uint(len(a.compromised)) && a.compromised[v]
}

// SenderBits maps a sender sequence to the bit string of Sec. IV-D:
// bit i is true when sender i is compromised, disclosing the link it
// forwards over.
func (a *Adversary) SenderBits(senders []contact.NodeID) []bool {
	bits := make([]bool, len(senders))
	for i, v := range senders {
		bits[i] = a.IsCompromised(v)
	}
	return bits
}

// TraceableRate evaluates Eq. 1 on a realized copy path.
func (a *Adversary) TraceableRate(ct routing.CopyTrace) float64 {
	return model.TraceableRateOfPath(a.SenderBits(ct.Senders()))
}

// CompromisedPositions counts the onion path positions 0..K (0 = the
// source and any sprayed relays, k = the R_k relay of each copy) at
// which at least one occupant across all copies is compromised. This
// is the multi-copy random variable Y' of Sec. IV-F; with a single
// copy it reduces to Y of Eq. 15.
func (a *Adversary) CompromisedPositions(copies []routing.CopyTrace, k int) int {
	hit := make([]bool, k+1)
	for _, c := range copies {
		for _, v := range c.Visits {
			if v.Stage >= 0 && v.Stage <= k && a.IsCompromised(v.Node) {
				hit[v.Stage] = true
			}
		}
	}
	count := 0
	for _, h := range hit {
		if h {
			count++
		}
	}
	return count
}

// ObservedPathAnonymity measures the realized anonymity degree of a
// routed message: the number of compromised hop positions is plugged
// into Eq. 19 exactly as the analysis plugs in its expectation.
func (a *Adversary) ObservedPathAnonymity(g, k int, copies []routing.CopyTrace) float64 {
	cO := a.CompromisedPositions(copies, k)
	return model.PathAnonymity(a.n, k+1, g, float64(cO))
}

// CheckSenders returns the error SampleSenders(n, k, ·) fails with,
// or nil, without drawing.
func CheckSenders(n, k int) error {
	if k < 1 {
		return fmt.Errorf("adversary: need at least one relay, got %d", k)
	}
	if n < k+2 {
		return fmt.Errorf("adversary: %d nodes cannot host a %d-relay acyclic path", n, k)
	}
	return nil
}

// SampleSenders draws a uniform sender sequence for fast-mode security
// experiments: a source plus one relay per onion group, all distinct
// (acyclic path assumption). The returned slice has length k+1 = eta.
func SampleSenders(n, k int, s *rng.Stream) ([]contact.NodeID, error) {
	if err := CheckSenders(n, k); err != nil {
		return nil, err
	}
	// k+1 senders (source + K relays); the destination is not a sender.
	picks := s.Sample(n, k+1)
	out := make([]contact.NodeID, k+1)
	for i, p := range picks {
		out[i] = contact.NodeID(p)
	}
	return out, nil
}

// CheckPositions returns the error SamplePositions(n, k, copies, g,
// ·, ·) fails with, or nil, without drawing.
func CheckPositions(n, k, copies, g int) error {
	if k < 1 || copies < 1 || g < 1 {
		return fmt.Errorf("adversary: invalid parameters k=%d L=%d g=%d", k, copies, g)
	}
	if perGroup := min(copies, g); n < 2+perGroup {
		return fmt.Errorf("adversary: %d nodes too few for %d relays per hop", n, perGroup)
	}
	return nil
}

// SamplePositions draws the position occupancy of an L-copy message
// for fast-mode anonymity experiments. Each relay position k holds
// min(L, g) distinct members of that hop's onion group (copies never
// share a holder: Forward() is false for duplicates). With spray set
// (the paper's simulated variant, and the regime Eq. 20 models — all
// eta positions have L-way exposure), position 0 holds the source plus
// the L-1 sprayed relays; otherwise it holds the source alone
// (Algorithm 2 strict mode).
func SamplePositions(n, k, copies, g int, spray bool, s *rng.Stream) ([][]contact.NodeID, error) {
	if err := CheckPositions(n, k, copies, g); err != nil {
		return nil, err
	}
	perGroup := min(copies, g)
	firstHop := 1
	if spray {
		firstHop = copies
		if firstHop > n-1 {
			firstHop = n - 1
		}
	}
	// Every position's occupants share one backing array.
	out := make([][]contact.NodeID, k+1)
	nodes := make([]contact.NodeID, 0, firstHop+k*perGroup)
	for pos := range out {
		occupancy := perGroup
		if pos == 0 {
			occupancy = firstHop
		}
		start := len(nodes)
		for _, p := range s.Sample(n, occupancy) {
			nodes = append(nodes, contact.NodeID(p))
		}
		out[pos] = nodes[start:len(nodes):len(nodes)]
	}
	return out, nil
}

// PositionsCompromised counts positions with at least one compromised
// occupant in a fast-mode sample.
func (a *Adversary) PositionsCompromised(positions [][]contact.NodeID) int {
	count := 0
	for _, occupants := range positions {
		for _, v := range occupants {
			if a.IsCompromised(v) {
				count++
				break
			}
		}
	}
	return count
}
