package node

import (
	"errors"
	"fmt"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The carried/bundle conversions live in wire.go.

// Config configures a runtime network.
type Config struct {
	Nodes     int
	GroupSize int
	Seed      uint64
	// Spray enables source spray-and-wait hand-offs: a holder with
	// spare tickets may give a copy to any node, which carries the
	// ciphertext until it meets a member of the addressed group.
	Spray bool
	// Faults configures the deterministic fault-injection layer:
	// truncated transfers (retried in-contact, then re-offered at the
	// next meeting), corrupting byte flips (rejected by the bundle CRC
	// or onion AEAD, dropped gracefully), duplicate redelivery
	// (suppressed by the receiver's seen log), and node churn.
	Faults fault.Config
	// BufferLimit caps each node's custody buffer (0 = unlimited).
	// A full node refuses new custody — the sender retries with other
	// peers — but final deliveries are always accepted.
	BufferLimit int
	// ReofferLimit caps how many buffer-full refusals a carried copy
	// survives before its holder drops it (0 = unlimited re-offers, the
	// historical behavior). Under sustained load this bounds the work a
	// hopeless copy can generate instead of letting it be re-offered to
	// full peers forever.
	ReofferLimit int
	// AntiPackets enables delivery acknowledgements ("immunity" in the
	// epidemic-routing literature): destinations gossip the IDs of
	// delivered messages at every contact, and custodians purge stale
	// copies, freeing buffers that multi-copy forwarding would
	// otherwise occupy forever.
	AntiPackets bool
}

// Network owns the nodes, the shared group directory, and the
// fault-injection plan. Meet is safe for concurrent use.
type Network struct {
	cfg   Config
	dir   *groups.Directory
	nodes []*Node
	plan  *fault.Plan
}

// NewNetwork provisions n nodes, a random onion-group partition of
// size g, and all group and node keys.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("node: need at least 3 nodes, got %d", cfg.Nodes)
	}
	if cfg.BufferLimit < 0 {
		return nil, fmt.Errorf("node: negative buffer limit %d", cfg.BufferLimit)
	}
	if cfg.ReofferLimit < 0 {
		return nil, fmt.Errorf("node: negative re-offer limit %d", cfg.ReofferLimit)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	root := rng.New(cfg.Seed)
	dir, err := groups.NewPartition(cfg.Nodes, cfg.GroupSize, root.Split("partition"))
	if err != nil {
		return nil, err
	}
	if err := dir.ProvisionKeys(); err != nil {
		return nil, err
	}
	nw := &Network{cfg: cfg, dir: dir, plan: fault.NewPlan(cfg.Faults, root.Split("faults"))}
	nw.nodes = make([]*Node, cfg.Nodes)
	for i := range nw.nodes {
		nw.nodes[i] = newNode(contact.NodeID(i), dir, cfg.BufferLimit)
		nw.nodes[i].reofferLimit = cfg.ReofferLimit
	}
	return nw, nil
}

// Node returns the node with the given ID.
func (nw *Network) Node(id contact.NodeID) *Node {
	if id < 0 || int(id) >= len(nw.nodes) {
		panic(fmt.Sprintf("node: id %d out of range", id))
	}
	return nw.nodes[id]
}

// Directory returns the shared onion-group directory.
func (nw *Network) Directory() *groups.Directory { return nw.dir }

// Meet executes a contact between nodes x and y at the given time:
// expired onions are dropped, then each side hands over every onion
// the peer is eligible for. Both nodes are locked in ID order for the
// whole exchange, so concurrent Meets never double-spend a ticket.
func (nw *Network) Meet(x, y contact.NodeID, now float64) MeetReport {
	if x == y {
		return MeetReport{}
	}
	a, b := nw.Node(x), nw.Node(y)
	first, second := a, b
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	// Node churn: each participant may crash and restart at the start
	// of the contact. Rolls are drawn in ID order so a contact's fate
	// does not depend on the direction it was reported in. Crash()
	// consumes no stream state when churn is disabled, keeping
	// zero-fault schedules byte-identical.
	if nw.plan.CrashEnabled() {
		preserve := nw.plan.Config().PreserveCustody
		if nw.plan.Crash() {
			first.crashLocked(preserve)
		}
		if nw.plan.Crash() {
			second.crashLocked(preserve)
		}
	}

	a.expireLocked(now)
	b.expireLocked(now)
	if nw.cfg.AntiPackets {
		exchangeAcksLocked(a, b)
	}

	rep := MeetReport{Contacts: 1}
	// One observability guard per contact; nil when disabled. The
	// collector is threaded through the exchange so per-hand-off
	// metrics avoid repeated atomic loads.
	col := obs.Active()
	nw.exchangeLocked(a, b, &rep, col)
	nw.exchangeLocked(b, a, &rep, col)
	a.compactLocked()
	b.compactLocked()
	rep.Observe(col, max(len(a.buffer), len(b.buffer)))
	return rep
}

// exchangeAcksLocked merges both parties' acknowledgements and purges
// any buffered copy of an already-delivered message. Each side takes,
// per origin, only the suffix of the other's log it lacks, so the cost
// is the number of new acknowledgements plus one length comparison per
// node. Both locks are held.
func exchangeAcksLocked(a, b *Node) {
	b.mergeAcksLocked(a)
	a.mergeAcksLocked(b)
}

// exchangeLocked hands over every eligible onion from sender to
// receiver as a marshaled Bundle-layer frame — the receiver re-parses
// and re-validates everything it is given. Both locks are held.
// Onions are offered in custody (FIFO) order: under a receiver buffer
// limit the transfer order decides which custody offers are refused,
// and both map iteration order and the crypto-random message IDs would
// make delivery outcomes nondeterministic for a fixed seed.
func (nw *Network) exchangeLocked(sender, receiver *Node, rep *MeetReport, col *obs.Collector) {
	// Releases during the walk only tombstone; Meet compacts after both
	// directions. The cheap integer eligibility test runs before the
	// string-keyed seen lookup, since most held onions are ineligible.
	// Skipping copies the receiver has seen is the inventory step the
	// live tier runs in its contact preamble (Seen); here it also saves
	// marshalling them.
	for _, c := range sender.order {
		if c.gone || !sender.eligibleLocked(c, receiver.id, nw.cfg.Spray) || receiver.seen[c.id] {
			continue
		}
		v := nw.handoffLocked(sender, receiver, c, rep, col)
		rep.Count(v, sender.settleLocked(c, v))
	}
}

// handoffLocked pushes c's frame across the (possibly faulty) wire and
// returns the receiver's verdict on the last attempt. A torn transfer
// is retried in-contact up to the configured retry budget; a damaged
// final attempt leaves the sender holding custody, to re-offer at a
// later contact (the inter-contact gap is the backoff). When the fault
// plan schedules a duplicate redelivery of an accepted frame, the
// receiver's seen log must suppress it. Both locks are held.
func (nw *Network) handoffLocked(sender, receiver *Node, c *carried, rep *MeetReport, col *obs.Collector) Verdict {
	frame := c.frame()
	retries := nw.plan.Config().Retries
	for attempt := 0; ; attempt++ {
		h := nw.plan.Handoff(len(frame))
		wire := frame
		switch {
		case h.Truncate:
			wire = fault.Truncate(frame, h.Cut)
		case h.Corrupt:
			wire = fault.Flip(frame, h.Flip)
		}
		if col != nil {
			col.Add(obs.NodeWireBytes, int64(len(wire)))
			col.Observe(obs.HistHandoffFrameBytes, int64(len(frame)))
		}
		v := receiver.receiveLocked(wire, c.hops)
		switch {
		case !v.Damaged:
			if h.Duplicate && v.Accepted {
				// A second accept would double-deliver to the
				// application layer.
				if receiver.receiveLocked(wire, c.hops).Accepted {
					panic(fmt.Sprintf("node: duplicate redelivery of %s accepted twice", c.id))
				}
				receiver.stats.Duplicates++
				rep.Duplicates++
			}
			return v
		case !errors.Is(v.Err, bundle.ErrTruncated):
			// Corruption (CRC/tamper class): drop gracefully, no
			// retransmission — a flipped frame signals a bad link, not
			// an aborted transfer.
			rep.Corrupted++
			return v
		}
		// Torn transfer: the peer is still in contact, so the sender
		// retransmits immediately (short backoff) until the in-contact
		// budget is spent. Count tallies only the last attempt.
		rep.Truncated++
		if attempt >= retries {
			return v
		}
		rep.Rejected++
		sender.stats.Retried++
		rep.Retried++
	}
}

// TotalStats aggregates all node counters.
func (nw *Network) TotalStats() Stats {
	var total Stats
	for _, n := range nw.nodes {
		total.Add(n.Stats())
	}
	return total
}

// contactDriver adapts the network to the sim.Protocol interface so
// synthetic engines and trace replay can drive real nodes.
type contactDriver struct {
	nw   *Network
	done func() bool
}

func (d contactDriver) OnContact(t float64, a, b contact.NodeID) { d.nw.Meet(a, b, t) }

func (d contactDriver) Done() bool {
	if d.done == nil {
		return false
	}
	return d.done()
}

// DriveSynthetic runs the network over a synthetic contact process
// until the horizon or until done() reports true. It returns the
// number of contacts executed.
func (nw *Network) DriveSynthetic(g *contact.Graph, horizon float64, s *rng.Stream, done func() bool) int {
	return sim.RunSynthetic(g, horizon, s, contactDriver{nw: nw, done: done})
}

// DriveTrace replays a recorded trace window over the network. It
// returns the number of contacts executed.
func (nw *Network) DriveTrace(tr *trace.Trace, from, horizon float64, done func() bool) int {
	return sim.Replay(tr, from, horizon, contactDriver{nw: nw, done: done})
}
