package routing

import (
	"fmt"

	"repro/internal/contact"
)

// TPSParams configures a Threshold Pivot Scheme message [Jansen &
// Beverly 2011], the main alternative to onion groups discussed in
// Sec. VI-C: the source splits the message into s shares (Shamir
// threshold tau), routes each share through its own relay group to a
// pivot node, and the pivot — once it holds at least tau shares —
// reconstructs and forwards to the destination. The scheme trades the
// onion's long serial path for parallel two-hop share paths, at the
// cost of revealing the destination to the pivot.
type TPSParams struct {
	Src, Dst contact.NodeID
	Pivot    contact.NodeID
	// Sets are the s relay groups, one share routed through each.
	Sets [][]contact.NodeID
	// Threshold is tau, the number of shares the pivot needs.
	Threshold int
}

// Validate checks the parameters.
func (p TPSParams) Validate() error {
	if p.Src == p.Dst || p.Src == p.Pivot || p.Dst == p.Pivot {
		return fmt.Errorf("routing: tps endpoints must be distinct (src=%d dst=%d pivot=%d)", p.Src, p.Dst, p.Pivot)
	}
	if len(p.Sets) == 0 {
		return fmt.Errorf("routing: tps needs at least one share group")
	}
	if p.Threshold < 1 || p.Threshold > len(p.Sets) {
		return fmt.Errorf("routing: tps threshold %d out of [1, %d]", p.Threshold, len(p.Sets))
	}
	for i, set := range p.Sets {
		if len(set) == 0 {
			return fmt.Errorf("routing: tps share group %d is empty", i)
		}
		for _, v := range set {
			if v == p.Src || v == p.Dst || v == p.Pivot {
				return fmt.Errorf("routing: tps share group %d contains an endpoint", i)
			}
		}
	}
	return nil
}

// shareState tracks one share's position: held by the source, a relay,
// or the pivot.
type shareState int

const (
	shareAtSource shareState = iota + 1
	shareAtRelay
	shareAtPivot
)

// TPS is the contact-driven Threshold Pivot Scheme. It implements the
// sim.Protocol interface structurally.
type TPS struct {
	p       TPSParams
	members []map[contact.NodeID]bool
	state   []shareState     // per share
	holder  []contact.NodeID // per share, meaningful for shareAtRelay
	atPivot int
	res     TPSResult
}

// TPSResult summarizes one TPS message.
type TPSResult struct {
	Delivered     bool
	Time          float64
	Transmissions int
	SharesAtPivot int // shares the pivot had collected by the end
	// ShareRelays records which relay carried each share (or -1 if the
	// share never left the source).
	ShareRelays []contact.NodeID
}

// NewTPS builds the protocol instance for one message.
func NewTPS(p TPSParams) (*TPS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &TPS{
		p:       p,
		members: make([]map[contact.NodeID]bool, len(p.Sets)),
		state:   make([]shareState, len(p.Sets)),
		holder:  make([]contact.NodeID, len(p.Sets)),
	}
	for i, set := range p.Sets {
		m := make(map[contact.NodeID]bool, len(set))
		for _, v := range set {
			m[v] = true
		}
		t.members[i] = m
		t.state[i] = shareAtSource
		t.holder[i] = p.Src
	}
	t.res.ShareRelays = make([]contact.NodeID, len(p.Sets))
	for i := range t.res.ShareRelays {
		t.res.ShareRelays[i] = -1
	}
	return t, nil
}

// Done implements sim.Protocol.
func (t *TPS) Done() bool { return t.res.Delivered }

// Result returns the outcome so far.
func (t *TPS) Result() TPSResult {
	out := t.res
	out.SharesAtPivot = t.atPivot
	out.ShareRelays = append([]contact.NodeID(nil), t.res.ShareRelays...)
	return out
}

// OnContact implements sim.Protocol.
func (t *TPS) OnContact(now float64, a, b contact.NodeID) {
	if t.res.Delivered {
		return
	}
	t.try(now, a, b)
	t.try(now, b, a)
}

func (t *TPS) try(now float64, holder, peer contact.NodeID) {
	// Pivot delivery: once the threshold is met, the pivot hands the
	// reconstructed message to the destination (which it must know —
	// the scheme's anonymity concession).
	if holder == t.p.Pivot && peer == t.p.Dst && t.atPivot >= t.p.Threshold {
		t.res.Transmissions++
		t.res.Delivered = true
		t.res.Time = now
		return
	}
	for i := range t.state {
		switch t.state[i] {
		case shareAtSource:
			if holder == t.p.Src && t.members[i][peer] {
				t.state[i] = shareAtRelay
				t.holder[i] = peer
				t.res.ShareRelays[i] = peer
				t.res.Transmissions++
				return // one share per contact
			}
		case shareAtRelay:
			if holder == t.holder[i] && peer == t.p.Pivot {
				t.state[i] = shareAtPivot
				t.holder[i] = t.p.Pivot
				t.atPivot++
				t.res.Transmissions++
				return
			}
		}
	}
}
