package routing

import (
	"fmt"

	"repro/internal/contact"
)

// BaselineResult summarizes a non-anonymous baseline run.
type BaselineResult struct {
	Delivered     bool
	Time          float64
	Transmissions int
}

// Epidemic is the flooding baseline [Vahdat & Becker 2000]: every
// contact between an infected and a susceptible node copies the
// message. It maximizes delivery rate at maximal transmission cost
// (Sec. VI-A). It implements sim.Protocol.
type Epidemic struct {
	src, dst contact.NodeID
	infected map[contact.NodeID]bool
	res      BaselineResult
}

// NewEpidemic builds the protocol for one message.
func NewEpidemic(src, dst contact.NodeID) (*Epidemic, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: source equals destination (%d)", src)
	}
	return &Epidemic{
		src:      src,
		dst:      dst,
		infected: map[contact.NodeID]bool{src: true},
	}, nil
}

// OnContact implements sim.Protocol.
func (e *Epidemic) OnContact(t float64, a, b contact.NodeID) {
	if e.res.Delivered {
		return
	}
	if e.infected[a] == e.infected[b] {
		return
	}
	receiver := a
	if e.infected[a] {
		receiver = b
	}
	e.infected[receiver] = true
	e.res.Transmissions++
	if receiver == e.dst {
		e.res.Delivered = true
		e.res.Time = t
	}
}

// Done implements sim.Protocol.
func (e *Epidemic) Done() bool { return e.res.Delivered }

// Result returns the outcome so far.
func (e *Epidemic) Result() BaselineResult { return e.res }

// SprayAndWait is the source spray-and-wait baseline [Spyropoulos et
// al. 2005]: the source hands out L-1 copies to the first distinct
// nodes it meets and keeps one; every copy holder then waits to meet
// the destination directly. This is the paper's non-anonymous
// multi-copy reference (cost 2L, Sec. IV-C). It implements
// sim.Protocol.
type SprayAndWait struct {
	src, dst contact.NodeID
	tickets  int
	holders  map[contact.NodeID]bool
	res      BaselineResult
}

// NewSprayAndWait builds the protocol for one message with L copies.
func NewSprayAndWait(src, dst contact.NodeID, copies int) (*SprayAndWait, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: source equals destination (%d)", src)
	}
	if copies < 1 {
		return nil, fmt.Errorf("routing: copies must be >= 1, got %d", copies)
	}
	return &SprayAndWait{
		src:     src,
		dst:     dst,
		tickets: copies,
		holders: map[contact.NodeID]bool{src: true},
	}, nil
}

// OnContact implements sim.Protocol.
func (p *SprayAndWait) OnContact(t float64, a, b contact.NodeID) {
	if p.res.Delivered {
		return
	}
	p.try(t, a, b)
	if !p.res.Delivered {
		p.try(t, b, a)
	}
}

func (p *SprayAndWait) try(t float64, h, peer contact.NodeID) {
	if !p.holders[h] {
		return
	}
	if peer == p.dst {
		p.res.Transmissions++
		p.res.Delivered = true
		p.res.Time = t
		return
	}
	// Only the source sprays, and only while it holds spare tickets.
	if h == p.src && p.tickets >= 2 && !p.holders[peer] {
		p.holders[peer] = true
		p.tickets--
		p.res.Transmissions++
	}
}

// Done implements sim.Protocol.
func (p *SprayAndWait) Done() bool { return p.res.Delivered }

// Result returns the outcome so far.
func (p *SprayAndWait) Result() BaselineResult { return p.res }

// Direct is the direct-delivery baseline: the source waits until it
// meets the destination. One transmission, maximal delay. It
// implements sim.Protocol.
type Direct struct {
	src, dst contact.NodeID
	res      BaselineResult
}

// NewDirect builds the protocol for one message.
func NewDirect(src, dst contact.NodeID) (*Direct, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: source equals destination (%d)", src)
	}
	return &Direct{src: src, dst: dst}, nil
}

// OnContact implements sim.Protocol.
func (d *Direct) OnContact(t float64, a, b contact.NodeID) {
	if d.res.Delivered {
		return
	}
	if (a == d.src && b == d.dst) || (a == d.dst && b == d.src) {
		d.res.Transmissions++
		d.res.Delivered = true
		d.res.Time = t
	}
}

// Done implements sim.Protocol.
func (d *Direct) Done() bool { return d.res.Delivered }

// Result returns the outcome so far.
func (d *Direct) Result() BaselineResult { return d.res }
