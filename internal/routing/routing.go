// Package routing implements the paper's abstract onion-based
// anonymous routing protocols (Sec. III) and the non-anonymous
// baselines used by the evaluation:
//
//   - Onion, the contact-driven protocol: Algorithm 1 (single-copy)
//     when Copies == 1, Algorithm 2 (multi-copy, ticket-based) when
//     Copies >= 2, and the paper's *simulated* variant — ARDEN
//     augmented with source spray-and-wait (Sec. V) — when Spray is
//     set. It runs on any contact source (synthetic engine or trace
//     replay).
//   - SampleOnion, a direct sampler for synthetic contact graphs that
//     produces statistically identical results orders of magnitude
//     faster by exploiting the memorylessness of exponential
//     inter-contact times.
//   - Epidemic, SprayAndWait and Direct baselines (Sec. VI-A).
package routing

import (
	"fmt"

	"repro/internal/contact"
)

// Stage numbering: a holder at stage k needs to reach target set k,
// where targets 0..K-1 are the onion groups R_1..R_K and target K is
// the destination. Equivalently, stage == the holder's own position on
// the onion path (0 = source or sprayed relay, k = member of R_k).

// Params configures one onion-routed message.
type Params struct {
	Src, Dst contact.NodeID
	// Sets are the onion group member sets R_1, ..., R_K in travel
	// order. They must not contain Src or Dst.
	Sets [][]contact.NodeID
	// Copies is L, the maximum number of message copies (tickets).
	Copies int
	// Spray enables the source spray-and-wait augmentation used in the
	// paper's simulations: while the source retains at least two
	// tickets it may hand a copy to *any* node it meets, not only R_1
	// members. Without Spray the protocol is Algorithm 2 verbatim
	// (Algorithm 1 when Copies == 1).
	Spray bool
	// StartTime is the activation time: contacts before it are
	// ignored. Delivery times are reported in absolute time.
	StartTime float64
	// RunToCompletion keeps the protocol consuming contacts after the
	// first delivery so that the total transmission count of all L
	// copies is observed (used by the Fig. 11 cost experiment).
	RunToCompletion bool
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Src == p.Dst {
		return fmt.Errorf("routing: source equals destination (%d)", p.Src)
	}
	if p.Src < 0 || p.Dst < 0 {
		return fmt.Errorf("routing: negative endpoint (%d, %d)", p.Src, p.Dst)
	}
	if len(p.Sets) == 0 {
		return fmt.Errorf("routing: at least one onion group is required")
	}
	for k, set := range p.Sets {
		if len(set) == 0 {
			return fmt.Errorf("routing: onion group %d is empty", k+1)
		}
		for _, v := range set {
			if v == p.Src || v == p.Dst {
				return fmt.Errorf("routing: onion group %d contains endpoint %d", k+1, v)
			}
		}
	}
	if p.Copies < 1 {
		return fmt.Errorf("routing: copies must be >= 1, got %d", p.Copies)
	}
	if p.Copies > 1 && p.Spray && len(p.Sets) < 1 {
		return fmt.Errorf("routing: spray requires onion groups")
	}
	if p.StartTime < 0 {
		return fmt.Errorf("routing: negative start time %v", p.StartTime)
	}
	return nil
}

// Visit records that a node held a message copy at the given onion
// path position (0 = source/sprayed relay, k = member of R_k,
// K+1 = destination).
type Visit struct {
	Node  contact.NodeID
	Stage int
}

// CopyTrace is the realized path of one message copy.
type CopyTrace struct {
	Visits    []Visit
	Delivered bool
}

// Senders returns the nodes that transmitted this copy along its path
// (every visited node except the destination), in order. For a
// delivered copy this is the sender sequence of Eq. 1.
func (c CopyTrace) Senders() []contact.NodeID {
	n := len(c.Visits)
	if c.Delivered {
		n-- // final visit is the destination, which sends nothing
	}
	out := make([]contact.NodeID, 0, n)
	for _, v := range c.Visits[:n] {
		out = append(out, v.Node)
	}
	return out
}

// Result summarizes one onion-routed message.
type Result struct {
	Delivered     bool
	Time          float64 // absolute time of first delivery
	Transmissions int     // total transmissions across all copies
	Copies        []CopyTrace
}

// DeliveredCopy returns the trace of the first delivered copy, if any.
func (r Result) DeliveredCopy() (CopyTrace, bool) {
	for _, c := range r.Copies {
		if c.Delivered {
			return c, true
		}
	}
	return CopyTrace{}, false
}
