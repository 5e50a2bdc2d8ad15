package node

// Transport surface: the one custody exchange both tiers run.
// Network.Meet drives it over an in-memory pipe (with fault
// injection); internal/cluster drives it over real TCP sockets. Each
// direction of a contact is an inventory step followed by a
// half-duplex offer/verdict exchange over the copies that survive it:
//
//	sender:   OffersTo(peer)             -> eligible message IDs, FIFO order
//	receiver: Seen(ids)                  -> one flag per ID; seen copies are not sent
//	sender:   OfferFrame(id)             -> the frame and hops of an unseen copy
//	receiver: Receive(frame, senderHops) -> Verdict
//	sender:   Settle(id, verdict)        -> spend a ticket, or charge a refusal
//	both:     MeetReport.Count(verdict, dropped), then one Observe per contact
//
// The inventory is exact, not a heuristic: within one direction the
// sender holds at most one copy per message ID and the receiver's seen
// log grows only by the IDs it takes in that direction, so flags read
// once before the offers equal a seen test before each offer. A seen
// log only grows within a process (Crash keeps it), so a flag once
// true stays true: the live tier leaves out of later inventories, on
// the same connection, the IDs it has learned the peer has seen, with
// the outcome reading their flags again would have had. Receive still
// rejects a seen copy, for a peer that ignores the flags.
//
// Custody safety falls out of the verdict discipline: a sender that
// never hears an accept keeps the onion and re-offers at a later
// contact (the inter-contact gap is the backoff), so a connection torn
// mid-contact can delay but never lose or duplicate a delivery — the
// receiver's seen log rejects the re-offer if the verdict, not the
// transfer, was what got lost.

import (
	"errors"
	"sort"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/obs"
)

// eligibleLocked reports whether peer may take custody of c: the final
// destination of a last-hop onion, a member of the addressed group, or
// (in spray mode) any node while spare tickets remain. The caller
// holds n.mu.
func (n *Node) eligibleLocked(c *carried, peer contact.NodeID, spray bool) bool {
	switch {
	case c.lastHop:
		return c.deliverTo == peer
	case n.dir.Contains(c.group, peer):
		return true
	case spray && c.tickets >= 2:
		return true
	}
	return false
}

// OffersTo lists the message IDs of every onion in custody that peer
// is eligible to receive, in custody FIFO order: the inventory a
// contact preamble carries. Nothing is marshaled until OfferFrame, so
// a copy the peer has seen costs no frame.
func (n *Node) OffersTo(peer contact.NodeID, spray bool) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, c := range n.order {
		if !c.gone && n.eligibleLocked(c, peer, spray) {
			out = append(out, c.id)
		}
	}
	return out
}

// OfferFrame marshals the copy of msgID for the wire, with the hop
// count that rides alongside it; ok is false once the copy has left
// custody. The frame is a snapshot: custody is only released by
// Settle, so a connection that dies between offer and verdict leaves
// the sender holding every unacknowledged onion.
func (n *Node) OfferFrame(msgID string) (frame []byte, hops int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.buffer[msgID]
	if !ok {
		return nil, 0, false
	}
	return c.frame(), c.hops, true
}

// Seen reports, for each message ID, whether this node has ever
// carried or delivered that message — the inventory step of a contact.
// A copy the peer has seen would only be rejected, so the sender skips
// it instead of offering it.
func (n *Node) Seen(ids []string) []bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = n.seen[id]
	}
	return out
}

// Verdict is a receiver's answer to one custody offer. A verdict read
// off the wire carries the peer's classification only, not its Err.
type Verdict struct {
	Accepted   bool  // custody moved: the copy is carried or delivered
	Delivered  bool  // the accepted frame was a final delivery
	BufferFull bool  // refused: the receiver's custody buffer is full
	Damaged    bool  // the frame failed to parse (torn or corrupted)
	Err        error // why the offer was not accepted
}

// Receive parses, validates, and ingests one incoming wire frame from
// a peer whose copy had traveled senderHops custody transfers. Damaged
// frames fail before any state changes; Err then tells a torn frame
// (bundle.ErrTruncated: the peer may retransmit in-contact) from a
// corrupted one (drop gracefully).
func (n *Node) Receive(frame []byte, senderHops int) Verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.receiveLocked(frame, senderHops)
}

// receiveLocked is Receive with n.mu held.
func (n *Node) receiveLocked(frame []byte, senderHops int) Verdict {
	c, err := receiveFrame(frame)
	if err != nil {
		n.stats.Rejected++
		if errors.Is(err, bundle.ErrTruncated) {
			n.stats.Truncated++
		} else {
			n.stats.Corrupted++
		}
		return Verdict{Damaged: true, Err: err}
	}
	c.hops = senderHops + 1
	if err := n.acceptLocked(c); err != nil {
		return Verdict{BufferFull: errors.Is(err, ErrBufferFull), Err: err}
	}
	return Verdict{Accepted: true, Delivered: c.lastHop}
}

// Settle applies a peer's verdict on the offer of msgID. An accepted
// hand-off spends one ticket and releases custody when none remain. A
// buffer-full refusal charges the copy's re-offer budget and reports
// whether exhausting it dropped the copy (see SetReofferLimit). Any
// other verdict leaves custody as it is, so the copy is re-offered at
// a later contact. Settling an unknown message (e.g. after a crash
// dropped the buffer) is a no-op.
func (n *Node) Settle(msgID string, v Verdict) (dropped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.buffer[msgID]
	if !ok {
		return false
	}
	dropped = n.settleLocked(c, v)
	n.compactLocked()
	return dropped
}

// settleLocked is Settle for a copy in custody. Releases only
// tombstone, so it is safe while a caller walks the custody order. The
// caller holds n.mu.
func (n *Node) settleLocked(c *carried, v Verdict) (dropped bool) {
	switch {
	case v.Accepted:
		n.stats.Forwarded++
		c.tickets--
		if c.tickets <= 0 {
			n.releaseLocked(c)
		}
	case v.BufferFull:
		// Backpressure: with no budget configured (the default) the
		// sender just keeps custody.
		c.refusals++
		if n.reofferLimit > 0 && c.refusals >= n.reofferLimit {
			n.releaseLocked(c)
			n.stats.BackpressureDropped++
			return true
		}
	}
	return false
}

// MeetReport summarizes one contact, in either tier.
type MeetReport struct {
	// Contacts is 1 for a contact's report and 0 for the responder's
	// share of a live contact (see Observe).
	Contacts   int
	Offered    int // offers answered with a verdict (retries excluded)
	Transfers  int // onions that changed custody
	Deliveries int // payloads that reached their destination
	Rejected   int // hand-offs rejected (tampering, truncation)
	Refused    int // custody offers refused by a full buffer (subset of Rejected)
	Dropped    int // copies dropped after exhausting their re-offer budget
	Truncated  int // hand-offs torn mid-transfer
	Corrupted  int // hand-offs damaged by byte flips
	Retried    int // in-contact retransmissions after a tear
	Duplicates int // redeliveries suppressed by the receiver
}

// Count tallies one answered offer: its verdict, and whether settling
// it dropped the sender's copy.
func (r *MeetReport) Count(v Verdict, dropped bool) {
	r.Offered++
	if v.Accepted {
		r.Transfers++
		if v.Delivered {
			r.Deliveries++
		}
		return
	}
	r.Rejected++
	if v.BufferFull {
		r.Refused++
	}
	if dropped {
		r.Dropped++
	}
}

// Observe records the report on col's node.* series (nothing when col
// is nil), with custody, the custody-buffer occupancy after the
// contact, as a high-water sample. A live contact runs in two
// processes: the initiator observes the contact and both directions'
// hand-offs; the responder observes a share with Contacts 0 that
// carries only what the initiator cannot see — its own re-offer drops
// and its occupancy.
func (r MeetReport) Observe(col *obs.Collector, custody int) {
	if col == nil {
		return
	}
	col.Add(obs.NodeContacts, int64(r.Contacts))
	col.Add(obs.NodeHandoffs, int64(r.Transfers))
	col.Add(obs.NodeDeliveries, int64(r.Deliveries))
	col.Add(obs.NodeRejected, int64(r.Rejected))
	col.Add(obs.NodeRefusals, int64(r.Refused))
	col.Add(obs.NodeBackpressureDrops, int64(r.Dropped))
	col.Add(obs.NodeTruncated, int64(r.Truncated))
	col.Add(obs.NodeRetransmissions, int64(r.Retried))
	col.Add(obs.NodeTamperDrops, int64(r.Corrupted))
	col.Add(obs.NodeDedupHits, int64(r.Duplicates))
	if r.Contacts > 0 {
		col.Observe(obs.HistContactTransfers, int64(r.Transfers))
	}
	col.RecordMax(obs.NodeCustodyHighWater, int64(custody))
}

// Expire drops onions past their deadline, as Network.Meet does at the
// start of every contact.
func (n *Node) Expire(now float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.expireLocked(now)
}

// Crash models a crash/restart of this node outside a Network-driven
// contact (a killed daemon): the volatile custody buffer is lost
// unless preserved, while the delivered log, the duplicate-suppression
// log, and known acknowledgements survive — a restarted node must
// still deliver each message to its application layer exactly once.
func (n *Node) Crash(preserveCustody bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashLocked(preserveCustody)
}

// DeliveryRecord summarizes one message delivered to this node.
type DeliveryRecord struct {
	MsgID string
	Hops  int // custody transfers from source to destination
}

// DeliveredHops returns the number of custody transfers a delivered
// message experienced, if it was delivered here.
func (n *Node) DeliveredHops(msgID string) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.deliveredHops[msgID]
	return h, ok
}

// CustodyRecord describes one onion currently held in the custody
// buffer — the audit surface the cluster invariant checker walks to
// prove conservation (no bundle vanishes without a recorded cause) and
// the spray ticket bound (no copy set ever exceeds its budget).
type CustodyRecord struct {
	MsgID   string
	Tickets int
	Hops    int
}

// CustodySnapshot lists the buffer contents sorted by message ID.
func (n *Node) CustodySnapshot() []CustodyRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]CustodyRecord, 0, len(n.buffer))
	for id, c := range n.buffer {
		out = append(out, CustodyRecord{MsgID: id, Tickets: c.tickets, Hops: c.hops})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MsgID < out[j].MsgID })
	return out
}

// DeliveryRecords returns every delivery at this node, sorted by
// message ID for deterministic comparison.
func (n *Node) DeliveryRecords() []DeliveryRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]DeliveryRecord, 0, len(n.deliveredHops))
	for id, h := range n.deliveredHops {
		out = append(out, DeliveryRecord{MsgID: id, Hops: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MsgID < out[j].MsgID })
	return out
}
