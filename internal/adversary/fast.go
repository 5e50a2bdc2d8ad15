package adversary

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/rng"
)

// Path is the shape of a fast-mode path realization: n nodes, K relays
// (eta = K+1 senders), L copies and onion groups of g members. With
// Spray set (the paper's simulated variant, and the regime Eq. 20
// models — all eta positions have L-way exposure), position 0 holds the
// source plus the L-1 sprayed relays; otherwise it holds the source
// alone (Algorithm 2 strict mode).
type Path struct {
	Nodes, Relays, Copies, GroupSize int
	Spray                            bool
}

// Metric selects what a fast trial draws and measures.
type Metric uint8

const (
	// Traceable draws the sender sequence, a source plus one relay per
	// onion group, all distinct (acyclic path assumption), and measures
	// its traceable rate (Eq. 1).
	Traceable Metric = 1 << iota
	// Positions draws the position occupancy of the L-copy message and
	// counts the positions 0..K with a compromised occupant: the
	// multi-copy Y' of Sec. IV-F. Relay position k holds min(L, g)
	// distinct members of its group (copies never share a holder).
	Positions
)

// Outcome is what one fast trial measured; a metric not asked for
// reads zero.
type Outcome struct {
	TraceableRate        float64
	CompromisedPositions int
}

// FastTrial runs one fast-mode security trial on the stream
// parent.SplitN(label, i). It compromises round(frac*n) nodes drawn
// from the trial's "adv" split, as RandomFraction does, then draws only
// the samplers want names: the senders from its "senders" split and the
// positions from its "positions" split. Every draw equals the one
// Stream.Sample makes, so the outcome is the one the materialised
// sender and position slices give; a warm trial allocates nothing.
//
// Whatever want names, FastTrial rejects every parameter either sampler
// would, in a fixed order (the fraction, then the senders' checks, then
// the positions'), so a spec fails the same way whichever metric it
// measures. FastTrial is safe for concurrent use.
func (p Path) FastTrial(parent *rng.Stream, label string, i int, frac float64, want Metric) (Outcome, error) {
	c, err := fractionCount(p.Nodes, frac)
	if err != nil {
		return Outcome{}, err
	}
	if err := checkCount(p.Nodes, c); err != nil {
		return Outcome{}, err
	}
	if err := checkSenders(p.Nodes, p.Relays); err != nil {
		return Outcome{}, err
	}
	if err := checkPositions(p.Nodes, p.Relays, p.Copies, p.GroupSize); err != nil {
		return Outcome{}, err
	}
	sc := scratchPool.Get().(*scratch)
	out := sc.run(p, parent, label, i, c, want)
	// Only a trial that returned leaves its scratch clean: one that
	// panicked (the trial runner recovers) drops it instead.
	scratchPool.Put(sc)
	return out, nil
}

// scratch is the reusable state of one FastTrial in flight.
type scratch struct {
	trial, sub  rng.Stream
	table       rng.SampleTable
	compromised []bool // indexed by node; all false outside a trial
	members     []int  // the nodes set in compromised
	bits        []bool // the sender bits of Sec. IV-D
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// afterDraw, when set, runs between a draw and its undo; tests use it
// to interrupt a trial there.
var afterDraw func()

func (sc *scratch) run(p Path, parent *rng.Stream, label string, i, c int, want Metric) Outcome {
	n := p.Nodes
	parent.SplitNInto(&sc.trial, label, i)
	if len(sc.compromised) < n {
		sc.compromised = make([]bool, n)
	}
	sc.trial.SplitInto(&sc.sub, "adv")
	sc.members = append(sc.members[:0], sc.table.Draw(&sc.sub, n, c)...)
	sc.table.Undo()
	for _, v := range sc.members {
		sc.compromised[v] = true
	}
	var out Outcome
	if want&Traceable != 0 {
		// k+1 senders (source + K relays); the destination is not a sender.
		sc.trial.SplitInto(&sc.sub, "senders")
		sc.bits = sc.bits[:0]
		for _, v := range sc.table.Draw(&sc.sub, n, p.Relays+1) {
			sc.bits = append(sc.bits, sc.compromised[v])
		}
		if afterDraw != nil {
			afterDraw()
		}
		sc.table.Undo()
		out.TraceableRate = model.TraceableRateOfPath(sc.bits)
	}
	if want&Positions != 0 {
		sc.trial.SplitInto(&sc.sub, "positions")
		perGroup, firstHop := min(p.Copies, p.GroupSize), 1
		if p.Spray {
			firstHop = min(p.Copies, n-1)
		}
		for pos := 0; pos <= p.Relays; pos++ {
			occupancy := perGroup
			if pos == 0 {
				occupancy = firstHop
			}
			for _, v := range sc.table.Draw(&sc.sub, n, occupancy) {
				if sc.compromised[v] {
					out.CompromisedPositions++
					break
				}
			}
			sc.table.Undo()
		}
	}
	for _, v := range sc.members {
		sc.compromised[v] = false
	}
	return out
}

// checkSenders returns the error drawing a K-relay sender sequence
// among n nodes fails with, or nil.
func checkSenders(n, k int) error {
	if k < 1 {
		return fmt.Errorf("adversary: need at least one relay, got %d", k)
	}
	if n < k+2 {
		return fmt.Errorf("adversary: %d nodes cannot host a %d-relay acyclic path", n, k)
	}
	return nil
}

// checkPositions returns the error drawing the position occupancy of
// an L-copy, K-relay path over groups of g among n nodes fails with,
// or nil.
func checkPositions(n, k, copies, g int) error {
	if k < 1 || copies < 1 || g < 1 {
		return fmt.Errorf("adversary: invalid parameters k=%d L=%d g=%d", k, copies, g)
	}
	if perGroup := min(copies, g); n < 2+perGroup {
		return fmt.Errorf("adversary: %d nodes too few for %d relays per hop", n, perGroup)
	}
	return nil
}
