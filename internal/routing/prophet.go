package routing

import (
	"fmt"
	"math"

	"repro/internal/contact"
)

// Prophet is the PRoPHET probabilistic routing baseline [Lindgren et
// al. 2003], representative of the history-based protocols the paper's
// related work credits with improving delivery per cost (Sec. VI-A,
// [14][15]): each node maintains delivery predictabilities P(a, b)
// updated on contact, aged over time, and propagated transitively; a
// copy is replicated to a peer whose predictability for the
// destination exceeds the holder's. It implements sim.Protocol.
type Prophet struct {
	n        int
	src, dst contact.NodeID

	pred     []float64 // n x n predictability matrix, row = owner
	lastSeen []float64 // per node, time of last aging
	infected map[contact.NodeID]bool
	res      BaselineResult
}

// The PRoPHET constants, at the literature defaults.
const (
	prophetPInit = 0.75 // predictability boost on contact
	prophetBeta  = 0.25 // transitivity damping
	prophetGamma = 0.98 // aging factor per time unit
)

// NewProphet builds the protocol for one message over an n-node
// population.
func NewProphet(n int, src, dst contact.NodeID) (*Prophet, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: source equals destination (%d)", src)
	}
	if n < 2 || src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, fmt.Errorf("routing: endpoints (%d, %d) out of range [0, %d)", src, dst, n)
	}
	return &Prophet{
		n:        n,
		src:      src,
		dst:      dst,
		pred:     make([]float64, n*n),
		lastSeen: make([]float64, n),
		infected: map[contact.NodeID]bool{src: true},
	}, nil
}

func (p *Prophet) predAt(owner, about contact.NodeID) float64 {
	return p.pred[int(owner)*p.n+int(about)]
}

func (p *Prophet) setPred(owner, about contact.NodeID, v float64) {
	p.pred[int(owner)*p.n+int(about)] = v
}

// age decays all of owner's predictabilities by gamma^(dt).
func (p *Prophet) age(owner contact.NodeID, now float64) {
	dt := now - p.lastSeen[owner]
	if dt <= 0 {
		return
	}
	decay := math.Pow(prophetGamma, dt)
	row := p.pred[int(owner)*p.n : int(owner+1)*p.n]
	for i := range row {
		row[i] *= decay
	}
	p.lastSeen[owner] = now
}

// OnContact implements sim.Protocol: predictability update, transitive
// propagation, then replication toward better custodians.
func (p *Prophet) OnContact(now float64, a, b contact.NodeID) {
	if p.res.Delivered {
		return
	}
	p.age(a, now)
	p.age(b, now)

	// Direct update in both directions.
	for _, pair := range [2][2]contact.NodeID{{a, b}, {b, a}} {
		o, peer := pair[0], pair[1]
		v := p.predAt(o, peer)
		p.setPred(o, peer, v+(1-v)*prophetPInit)
	}
	// Transitivity: a learns about everyone b predicts well, and vice
	// versa.
	for _, pair := range [2][2]contact.NodeID{{a, b}, {b, a}} {
		o, peer := pair[0], pair[1]
		for x := 0; x < p.n; x++ {
			node := contact.NodeID(x)
			if node == o || node == peer {
				continue
			}
			via := p.predAt(o, peer) * p.predAt(peer, node) * prophetBeta
			if via > p.predAt(o, node) {
				p.setPred(o, node, via)
			}
		}
	}

	// Replication: hand a copy to a peer with strictly better
	// predictability for the destination (or the destination itself).
	p.replicate(now, a, b)
	if !p.res.Delivered {
		p.replicate(now, b, a)
	}
}

func (p *Prophet) replicate(now float64, holder, peer contact.NodeID) {
	if !p.infected[holder] || p.infected[peer] {
		return
	}
	if peer == p.dst {
		p.infected[peer] = true
		p.res.Transmissions++
		p.res.Delivered = true
		p.res.Time = now
		return
	}
	if p.predAt(peer, p.dst) > p.predAt(holder, p.dst) {
		p.infected[peer] = true
		p.res.Transmissions++
	}
}

// Done implements sim.Protocol.
func (p *Prophet) Done() bool { return p.res.Delivered }

// Result returns the outcome so far.
func (p *Prophet) Result() BaselineResult { return p.res }

// BinarySprayAndWait is the binary variant of spray-and-wait
// [Spyropoulos et al. 2005]: a holder with t > 1 tickets gives HALF of
// them (floor) to any node without a copy; holders with a single
// ticket wait for the destination. Faster spraying than the source
// variant at the same total copy budget. It implements sim.Protocol.
type BinarySprayAndWait struct {
	dst     contact.NodeID
	tickets map[contact.NodeID]int
	res     BaselineResult
}

// NewBinarySprayAndWait builds the protocol for one message with L
// total copies.
func NewBinarySprayAndWait(src, dst contact.NodeID, copies int) (*BinarySprayAndWait, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: source equals destination (%d)", src)
	}
	if copies < 1 {
		return nil, fmt.Errorf("routing: copies must be >= 1, got %d", copies)
	}
	return &BinarySprayAndWait{
		dst:     dst,
		tickets: map[contact.NodeID]int{src: copies},
	}, nil
}

// OnContact implements sim.Protocol.
func (p *BinarySprayAndWait) OnContact(now float64, a, b contact.NodeID) {
	if p.res.Delivered {
		return
	}
	p.try(now, a, b)
	if !p.res.Delivered {
		p.try(now, b, a)
	}
}

func (p *BinarySprayAndWait) try(now float64, holder, peer contact.NodeID) {
	t, holds := p.tickets[holder]
	if !holds {
		return
	}
	if peer == p.dst {
		p.res.Transmissions++
		p.res.Delivered = true
		p.res.Time = now
		return
	}
	if t > 1 {
		if _, has := p.tickets[peer]; !has {
			give := t / 2
			p.tickets[peer] = give
			p.tickets[holder] = t - give
			p.res.Transmissions++
		}
	}
}

// Done implements sim.Protocol.
func (p *BinarySprayAndWait) Done() bool { return p.res.Delivered }

// Result returns the outcome so far.
func (p *BinarySprayAndWait) Result() BaselineResult { return p.res }
