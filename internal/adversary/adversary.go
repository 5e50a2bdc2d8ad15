// Package adversary implements the paper's threat model (Sec. IV-D/E):
// a fraction c/n of nodes is compromised; a compromised node holding a
// message discloses the link to its next hop (traceable rate, Eq. 1)
// and confines the next onion router to its group of g candidates
// (path anonymity, Eq. 16).
//
// Security metrics can be measured two ways, which the tests verify
// agree: the honest mode evaluates realized routing.CopyTrace paths
// from actual simulations; the fast mode (Path.FastTrial) samples
// sender sequences and position occupancies directly, which is valid
// because both metrics are independent of the contact-graph
// realization (Sec. V-A).
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
	if err := checkNodes(n); err != nil {
		return nil, err
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
	if err := checkCount(n, c); err != nil {
		return nil, err
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
	c, err := fractionCount(n, frac)
	if err != nil {
		return nil, err
	}
	return Random(n, c, s)
}

// checkCount returns the error Random(n, c, ·) fails with, or nil,
// without drawing.
func checkCount(n, c int) error {
	if c < 0 || c > n {
		return fmt.Errorf("adversary: cannot compromise %d of %d nodes", c, n)
	}
	return checkNodes(n)
}

// checkNodes returns the error New(n, ·) fails with for its n, or nil.
func checkNodes(n int) error {
	if n < 1 {
		return fmt.Errorf("adversary: need at least one node, got %d", n)
	}
	return nil
}

// fractionCount is round(frac*n), the number of nodes RandomFraction
// compromises.
func fractionCount(n int, frac float64) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("adversary: fraction %v out of [0,1]", frac)
	}
	return int(frac*float64(n) + 0.5), nil
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
