// Package node is the message-level runtime of the system: concurrent
// DTN nodes that carry, hand off, peel, and deliver *real* encrypted
// onions (package onion) according to the abstract protocol, driven by
// any contact schedule (synthetic engine or trace replay).
//
// Where package routing simulates the protocol's forwarding decisions
// in the abstract (for the paper's large-scale experiments), this
// package executes them end to end: every hand-off moves ciphertext,
// every relay peels its layer with its group key, tampering is
// detected and rejected, and only the destination recovers the
// payload. The examples build on this runtime.
package node

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/contact"
	"repro/internal/groups"
	"repro/internal/onion"
	"repro/internal/rng"
)

// Stats counts a node's observable activity.
type Stats struct {
	Sent      int // messages originated
	Forwarded int // onions handed to a next hop
	Carried   int // onions accepted into the buffer
	Delivered int // payloads received as final destination
	Rejected  int // transfers rejected (tamper, unknown layer)
	Refused   int // transfers refused (buffer full)
	Expired   int // onions dropped at their deadline
	Purged    int // onions dropped after a delivery acknowledgement
	// BackpressureDropped counts onions this node gave up on after
	// exhausting their re-offer budget: every offer was refused by a
	// full peer ReofferLimit times, so custody was released without a
	// hand-off instead of queueing the copy forever.
	BackpressureDropped int

	// Fault-injection observables (zero without injected faults).
	Truncated    int // incoming frames torn mid-transfer
	Corrupted    int // incoming frames damaged by byte flips
	Retried      int // in-contact retransmissions after a torn frame
	Duplicates   int // redelivered frames suppressed by the seen log
	Crashes      int // crash/restart events at contacts
	CrashDropped int // custody onions lost to volatile-buffer crashes
}

// Add sums every counter of s into st: the one total both tiers'
// TotalStats report.
func (st *Stats) Add(s Stats) {
	st.Sent += s.Sent
	st.Forwarded += s.Forwarded
	st.Carried += s.Carried
	st.Delivered += s.Delivered
	st.Rejected += s.Rejected
	st.Refused += s.Refused
	st.Expired += s.Expired
	st.Purged += s.Purged
	st.BackpressureDropped += s.BackpressureDropped
	st.Truncated += s.Truncated
	st.Corrupted += s.Corrupted
	st.Retried += s.Retried
	st.Duplicates += s.Duplicates
	st.Crashes += s.Crashes
	st.CrashDropped += s.CrashDropped
}

// carried is one onion in a node's buffer.
type carried struct {
	id string
	// data is the ciphertext this node holds. For a relay hop it is
	// the layer addressed to group; for the final hop it is the inner
	// body sealed for deliverTo.
	data      []byte
	group     onion.GroupID
	deliverTo contact.NodeID
	lastHop   bool
	tickets   int
	expiry    float64
	// hops counts the custody transfers this copy has experienced since
	// origination. It rides outside the bundle wire format (the Network
	// and the cluster protocol thread it alongside the frame), so the
	// PR 2 fault schedules — which draw on frame length — are
	// untouched.
	hops int
	// gone marks a copy whose custody was released: it is no longer in
	// the holder's buffer map, and its slot in the custody order is a
	// tombstone until the next compaction.
	gone bool
	// refusals counts how many custody offers of this copy were refused
	// by a full peer; once it reaches the holder's re-offer budget the
	// copy is dropped instead of re-offered forever.
	refusals int
}

// Node is a single DTN participant. All methods are safe for
// concurrent use.
type Node struct {
	id          contact.NodeID
	dir         *groups.Directory
	bufferLimit int // 0 = unlimited
	// reofferLimit caps how many buffer-full refusals a carried copy
	// survives before the holder drops it (backpressure) instead of
	// re-offering indefinitely. 0 = unlimited re-offers, the historical
	// behavior.
	reofferLimit int

	mu     sync.Mutex
	buffer map[string]*carried
	// order is the custody FIFO: every copy taken into custody is
	// appended, so append order is custody order. Message IDs are drawn
	// from crypto/rand, so any ID-based ordering would differ run to
	// run; custody order is reproducible for a fixed workload seed, and
	// exchange walks it so buffer-refusal outcomes are too. Released
	// copies stay behind as tombstones (carried.gone) until compaction.
	order         []*carried
	tombstones    int // released copies still in order
	delivered     map[string][]byte
	deliveredHops map[string]int  // msg id -> custody transfers to reach us
	seen          map[string]bool // message IDs ever carried or delivered
	// ackLog holds the delivery acknowledgements this node knows, by
	// origin: ackLog[o] lists the messages delivered at node o, in o's
	// order. Only o appends to its own entry and acknowledgements
	// survive crashes, so every node's ackLog[o] is a prefix of o's and
	// a contact takes the longer prefix per origin. Allocated, one entry
	// per node, at the node's first acknowledgement.
	ackLog [][]string
	stats  Stats
}

// newNode builds a node bound to the shared group directory.
func newNode(id contact.NodeID, dir *groups.Directory, bufferLimit int) *Node {
	return &Node{
		id:            id,
		dir:           dir,
		bufferLimit:   bufferLimit,
		buffer:        make(map[string]*carried),
		delivered:     make(map[string][]byte),
		deliveredHops: make(map[string]int),
		seen:          make(map[string]bool),
	}
}

// New builds a standalone node bound to a group directory — the entry
// point for runtimes that own a single node per process (the TCP
// daemons in internal/cluster), where NewNetwork's all-nodes-in-one-
// address-space provisioning does not apply. The directory is typically
// a client-side view reconstructed from a directory service
// (groups.NewFromAssignment + InstallSymmetricKeys).
func New(id contact.NodeID, dir *groups.Directory, bufferLimit int) (*Node, error) {
	if dir == nil {
		return nil, errors.New("node: nil directory")
	}
	if id < 0 || int(id) >= dir.N() {
		return nil, fmt.Errorf("node: id %d out of range [0, %d)", id, dir.N())
	}
	if bufferLimit < 0 {
		return nil, fmt.Errorf("node: negative buffer limit %d", bufferLimit)
	}
	return newNode(id, dir, bufferLimit), nil
}

// ID returns the node's identifier.
func (n *Node) ID() contact.NodeID { return n.id }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// BufferLen returns the number of onions in custody.
func (n *Node) BufferLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.buffer)
}

// Delivered returns the payload of a message delivered to this node,
// if any.
func (n *Node) Delivered(msgID string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.delivered[msgID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), p...), true
}

// DeliveredCount returns how many distinct messages reached this node
// as their final destination.
func (n *Node) DeliveredCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.delivered)
}

// SendSpec configures an originated message.
type SendSpec struct {
	Dst     contact.NodeID
	Payload []byte
	Relays  int     // K onion groups
	Copies  int     // L tickets
	Expiry  float64 // absolute deadline; 0 = never expires
	PadTo   int     // onion padding target; 0 = no padding
	// ID optionally fixes the message ID (32 lowercase hex
	// characters). The default draws from crypto/rand; differential
	// harnesses that compare delivered-message sets across tiers inject
	// deterministic IDs here so the same workload is identifiable in
	// both.
	ID string
}

// Send builds an onion for the destination through Relays onion groups
// and places it in this node's buffer. It returns the message ID used
// to query delivery at the destination.
func (n *Node) Send(spec SendSpec, pathStream *rng.Stream) (string, error) {
	if spec.Copies < 1 {
		return "", fmt.Errorf("node: copies must be >= 1, got %d", spec.Copies)
	}
	ids, err := n.dir.SelectPath(n.id, spec.Dst, spec.Relays, pathStream)
	if err != nil {
		return "", fmt.Errorf("node: select path: %w", err)
	}
	hops := make([]onion.Hop, len(ids))
	for i, gid := range ids {
		c, err := n.dir.GroupCipher(gid)
		if err != nil {
			return "", fmt.Errorf("node: hop %d: %w", i, err)
		}
		hops[i] = onion.Hop{Group: gid, Cipher: c}
	}
	destCipher, err := n.dir.NodeCipher(spec.Dst)
	if err != nil {
		return "", fmt.Errorf("node: destination cipher: %w", err)
	}
	data, err := onion.Build(onion.NodeID(spec.Dst), spec.Payload, hops, destCipher, spec.PadTo)
	if err != nil {
		return "", fmt.Errorf("node: build onion: %w", err)
	}
	msgID := spec.ID
	if msgID == "" {
		if msgID, err = newMessageID(); err != nil {
			return "", err
		}
	} else if raw, err := hex.DecodeString(msgID); err != nil || len(raw) != 16 || strings.ContainsAny(msgID, "ABCDEF") {
		// Every copy a peer takes in is keyed by the lowercase encoding
		// of its bundle ID; an origin keyed otherwise would not find its
		// own message in a peer's seen log, and could send it twice.
		return "", fmt.Errorf("node: message id %q is not 32 lowercase hex characters", msgID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seen[msgID] {
		return "", fmt.Errorf("node: message id %s already used", msgID)
	}
	n.holdLocked(&carried{
		id:      msgID,
		data:    data,
		group:   ids[0],
		tickets: spec.Copies,
		expiry:  spec.Expiry,
	})
	n.stats.Sent++
	return msgID, nil
}

func newMessageID() (string, error) {
	var raw [16]byte
	if _, err := io.ReadFull(rand.Reader, raw[:]); err != nil {
		return "", fmt.Errorf("node: message id: %w", err)
	}
	return hex.EncodeToString(raw[:]), nil
}

// holdLocked takes c into custody at the tail of the custody FIFO and
// marks its message seen. The seen check that precedes every call
// guarantees a message enters a node's custody at most once. The
// caller holds n.mu.
func (n *Node) holdLocked(c *carried) {
	n.buffer[c.id] = c
	n.order = append(n.order, c)
	n.seen[c.id] = true
}

// releaseLocked drops c from custody; every removal goes through here
// so the custody FIFO never re-offers a released copy. Its slot in
// order becomes a tombstone, reclaimed by compactLocked. The caller
// holds n.mu.
func (n *Node) releaseLocked(c *carried) {
	delete(n.buffer, c.id)
	c.gone = true
	n.tombstones++
}

// compactLocked rebuilds the custody FIFO without tombstones, in
// place, when they make up more than half of it — so len(order) stays
// within 2·len(buffer). It must not run while a caller walks order.
// The caller holds n.mu.
func (n *Node) compactLocked() {
	if 2*n.tombstones > len(n.order) {
		n.expireLocked(0) // expires nothing, only compacts
	}
}

// errTransfer classifies a rejected hand-off: the sender keeps custody.
var errTransfer = errors.New("node: transfer rejected")

// ErrBufferFull marks the refusal subclass of rejected hand-offs: the
// receiver's custody buffer is at its limit. Senders distinguish it
// from tamper/unknown-layer rejections to charge the copy's re-offer
// budget — a full peer is backpressure, not a broken frame.
var ErrBufferFull = errors.New("buffer full")

// SetReofferLimit caps how many buffer-full refusals a carried copy
// survives before this node drops it (0 = unlimited, the default).
// Backpressure turns unbounded re-offer queues into an explicit drop
// policy for sustained-load service mode.
func (n *Node) SetReofferLimit(limit int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if limit < 0 {
		limit = 0
	}
	n.reofferLimit = limit
}

// acceptLocked ingests an onion handed over by a peer. The caller
// holds n.mu (Network.Meet locks both parties in ID order). The node
// peels the layer if it is a member of the addressed group, unwraps
// the payload if it is the destination of a final hop, and otherwise
// carries the ciphertext unchanged (a sprayed copy). A tampered onion
// returns an error and leaves this node unchanged.
func (n *Node) acceptLocked(c *carried) error {
	if n.seen[c.id] {
		return fmt.Errorf("%w: already saw message %s", errTransfer, c.id)
	}
	// Custody refusal when the buffer is full; deliveries to the final
	// destination consume no buffer and are always accepted.
	if n.bufferLimit > 0 && len(n.buffer) >= n.bufferLimit && !(c.lastHop && c.deliverTo == n.id) {
		n.stats.Refused++
		return fmt.Errorf("%w: %w (%d onions)", errTransfer, ErrBufferFull, len(n.buffer))
	}
	if c.lastHop {
		if c.deliverTo != n.id {
			return fmt.Errorf("%w: final hop addressed to %d, not %d", errTransfer, c.deliverTo, n.id)
		}
		cipher, err := n.dir.OwnCipher(n.id)
		if err != nil {
			n.stats.Rejected++
			return fmt.Errorf("%w: %v", errTransfer, err)
		}
		payload, err := onion.Unwrap(c.data, cipher)
		if err != nil {
			n.stats.Rejected++
			return fmt.Errorf("%w: %v", errTransfer, err)
		}
		n.delivered[c.id] = payload
		n.deliveredHops[c.id] = c.hops
		n.seen[c.id] = true
		n.addAckLocked(c.id) // origin of the anti-packet
		n.stats.Delivered++
		return nil
	}
	if !n.dir.Contains(c.group, n.id) {
		// Sprayed copy: carry the ciphertext unchanged until a group
		// member is met.
		n.holdLocked(&carried{
			id: c.id, data: c.data, group: c.group, tickets: 1, expiry: c.expiry,
			hops: c.hops,
		})
		n.stats.Carried++
		return nil
	}
	cipher, err := n.dir.MemberCipher(n.id, c.group)
	if err != nil {
		// A member whose directory holds no key for the group cannot
		// peel; the sender keeps custody and routes via another member.
		n.stats.Rejected++
		return fmt.Errorf("%w: %v", errTransfer, err)
	}
	peeled, err := onion.Peel(c.data, cipher)
	if err != nil {
		n.stats.Rejected++
		return fmt.Errorf("%w: %v", errTransfer, err)
	}
	next := &carried{id: c.id, tickets: 1, expiry: c.expiry, hops: c.hops}
	if peeled.Deliver {
		next.lastHop = true
		next.deliverTo = contact.NodeID(peeled.Dest)
		next.data = peeled.Inner
	} else {
		next.group = peeled.NextGroup
		next.data = peeled.Inner
	}
	n.holdLocked(next)
	n.stats.Carried++
	return nil
}

// addAckLocked appends id, just delivered here, to this node's own
// acknowledgement log. The caller holds n.mu.
func (n *Node) addAckLocked(id string) {
	if n.ackLog == nil {
		n.ackLog = make([][]string, n.dir.N())
	}
	n.ackLog[n.id] = append(n.ackLog[n.id], id)
}

// mergeAcksLocked learns every acknowledgement peer knows and this
// node lacks, and purges any buffered copy of those messages. Both
// locks are held. Both logs of one origin are prefixes of the origin's
// own, so the acks this node lacks are exactly the suffix of the
// longer one, and the merge touches nothing else. The suffix is taken
// by sharing the peer's backing array, capped so it is never appended
// to: only the origin appends, and to its own log.
func (n *Node) mergeAcksLocked(peer *Node) {
	if peer.ackLog == nil {
		return
	}
	if n.ackLog == nil {
		n.ackLog = make([][]string, len(peer.ackLog))
	}
	// Every contact walks all origins, so the loop indexes a local
	// slice of proven length: no field reload, no bounds check.
	logs := n.ackLog[:len(peer.ackLog)]
	for o, theirs := range peer.ackLog {
		mine := logs[o]
		if len(theirs) <= len(mine) {
			continue
		}
		for _, id := range theirs[len(mine):] {
			if c, held := n.buffer[id]; held {
				n.releaseLocked(c)
				n.stats.Purged++
			}
		}
		logs[o] = theirs[:len(theirs):len(theirs)]
	}
}

// crashLocked models a crash/restart at a contact (node churn). The
// volatile custody buffer is lost unless the node persists custody to
// stable storage; the delivered-payload log, the duplicate-suppression
// log, and known acknowledgements are durable state — a restarted node
// must still deliver each message to its application layer exactly
// once. The caller holds n.mu.
func (n *Node) crashLocked(preserveCustody bool) {
	n.stats.Crashes++
	if preserveCustody || len(n.buffer) == 0 {
		return
	}
	n.stats.CrashDropped += len(n.buffer)
	for _, c := range n.order {
		if !c.gone {
			n.releaseLocked(c)
		}
	}
	n.compactLocked()
}

// expireLocked drops onions past their deadline (none when now is 0)
// and compacts the custody FIFO in the same pass. The caller holds
// n.mu.
func (n *Node) expireLocked(now float64) {
	kept := n.order[:0]
	for _, c := range n.order {
		if !c.gone && c.expiry > 0 && now > c.expiry {
			n.releaseLocked(c)
			n.stats.Expired++
		}
		if !c.gone {
			kept = append(kept, c)
		}
	}
	clear(n.order[len(kept):])
	n.order = kept
	n.tombstones = 0
}
