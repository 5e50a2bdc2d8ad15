// Package chaos is a seed-driven network turbulence layer for the live
// cluster tier: latency and jitter, bandwidth throttling, connection
// resets, half-open stalls, short-read tears, asymmetric partitions,
// and scheduled directory blackouts — every fault drawn from rng
// substreams so a chaos schedule is a replayable artifact. The Plan is
// computed up front from the seed and the population size alone: the
// same -chaos-seed always serializes to byte-identical JSON regardless
// of worker count or wall-clock timing, and goes into the run manifest
// so a violation reproduces from a single number.
//
// Two properties make turbulence compatible with the differential
// harness's exact delivered-set agreement:
//
//   - Connection faults are custody-ambiguity-free by construction:
//     resets, stalls, and tears strike in the contact preamble (the
//     dial and the hello frame — cut offsets are capped below the
//     minimum hello size), never between an offer and its verdict. A
//     faulted contact attempt therefore moves no custody, and a clean
//     retry replays it exactly. Mid-offer tears — where custody
//     ambiguity genuinely lives — are exercised separately by the
//     fault-layer socket suite.
//   - Turbulence is bounded: per peer address at most RelentAfter
//     consecutive faulted grants are issued before a clean one
//     is guaranteed, so a retry loop with backoff always converges.
//
// Asymmetric partitions block the dialing direction of a node pair in
// cyclic windows; the blocked dialer is told how long the window has
// left so its backoff can wait it out — a partitioned contact is
// delayed, not dropped, preserving the contact set a reference run
// sees. Directory blackouts are planned as run fractions and executed
// by the harness that owns the directory (stop, run dark, restart).
package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Kind classifies one connection-slot fault.
type Kind string

const (
	KindClean    Kind = "clean"
	KindDelay    Kind = "delay"    // sleep before the first I/O in each direction
	KindThrottle Kind = "throttle" // pace all bytes at a drawn bandwidth
	KindReset    Kind = "reset"    // close abruptly once the write cut-point is reached
	KindStall    Kind = "stall"    // half-open: freeze the first write, then die
	KindTear     Kind = "tear"     // short write: deliver a frame prefix, then close
)

// Slot is one planned connection profile. Contact attempts and
// directory dials consume slots in grant order (an atomic cursor over
// the slot table, wrapping), so the table — not the racy assignment of
// slots to attempts — is the deterministic artifact.
type Slot struct {
	Kind     Kind `json:"kind"`
	DelayMs  int  `json:"delay_ms,omitempty"`  // KindDelay: pre-I/O latency
	Bps      int  `json:"bps,omitempty"`       // KindThrottle: bytes per second
	CutAfter int  `json:"cut_after,omitempty"` // KindReset/KindTear: written bytes before the cut
	StallMs  int  `json:"stall_ms,omitempty"`  // KindStall: freeze duration before the tear
}

// Partition is one asymmetric (directional) link block: dials From->To
// fail during [StartMs, EndMs) of every PeriodMs cycle of wall time
// since the Chaos clock started. The reverse direction is unaffected.
type Partition struct {
	From    int `json:"from"`
	To      int `json:"to"`
	StartMs int `json:"start_ms"`
	EndMs   int `json:"end_ms"`
}

// Blackout is one scheduled directory outage, expressed as fractions
// of the run so any harness pacing (contact index, epoch progress) can
// realize it deterministically.
type Blackout struct {
	StartFrac float64 `json:"start_frac"`
	EndFrac   float64 `json:"end_frac"`
}

// Plan is the full replayable chaos schedule.
type Plan struct {
	Seed        uint64      `json:"seed"`
	Nodes       int         `json:"nodes"`
	RelentAfter int         `json:"relent_after"`
	PeriodMs    int         `json:"period_ms"`
	Slots       []Slot      `json:"slots"`
	Partitions  []Partition `json:"partitions"`
	Blackouts   []Blackout  `json:"blackouts"`
}

// JSON serializes the plan deterministically (fixed field order, no
// maps): the byte-compare artifact for the manifest and CI.
func (p *Plan) JSON() []byte {
	raw, err := json.Marshal(p)
	if err != nil {
		// A Plan is plain data; marshal cannot fail.
		panic(fmt.Sprintf("chaos: marshal plan: %v", err))
	}
	return raw
}

// The plan's fixed shape and magnitudes.
const (
	planSlots      = 64    // connection slot table size
	faultDensity   = 0.35  // fraction of slots that are non-clean
	maxDelayMs     = 40    // delay upper bound
	minBps         = 4096  // throttle lower bound
	maxBps         = 32768 // throttle upper bound
	maxStallMs     = 150   // stall upper bound
	partitions     = 2     // directional partition windows per period
	periodMs       = 1000  // partition cycle length
	maxPartitionMs = 250   // partition window upper bound
	blackouts      = 1     // scheduled directory outages per run
	relentAfter    = 3     // max consecutive faulted connections per address
)

// maxCut caps reset/tear cut offsets strictly below the smallest
// possible hello frame (4-byte length prefix + 1 type byte + a 24-byte
// binary body when the hello lists no offer IDs), so a cut always lands
// inside the hello, the first frame a dialer writes, and never between
// an offer and its verdict.
const maxCut = 28

// NewPlan draws the full schedule for a population of nodes from rng
// substreams of seed; partitions need nodes >= 2. The draw order is
// fixed and every family uses its own substream, so adding slots never
// perturbs partitions and vice versa.
func NewPlan(seed uint64, nodes int) *Plan {
	root := rng.New(seed)
	p := &Plan{
		Seed:        seed,
		Nodes:       nodes,
		RelentAfter: relentAfter,
		PeriodMs:    periodMs,
		Slots:       make([]Slot, planSlots),
	}
	kinds := []Kind{KindDelay, KindThrottle, KindReset, KindStall, KindTear}
	for i := range p.Slots {
		s := root.SplitN("chaos-slot", i)
		if s.Float64() >= faultDensity {
			p.Slots[i] = Slot{Kind: KindClean}
			continue
		}
		switch kinds[s.IntN(len(kinds))] {
		case KindDelay:
			p.Slots[i] = Slot{Kind: KindDelay, DelayMs: 1 + s.IntN(maxDelayMs)}
		case KindThrottle:
			p.Slots[i] = Slot{Kind: KindThrottle, Bps: minBps + s.IntN(maxBps-minBps)}
		case KindReset:
			p.Slots[i] = Slot{Kind: KindReset, CutAfter: 4 + s.IntN(maxCut-4)}
		case KindStall:
			p.Slots[i] = Slot{Kind: KindStall, StallMs: 10 + s.IntN(maxStallMs)}
		case KindTear:
			p.Slots[i] = Slot{Kind: KindTear, CutAfter: 4 + s.IntN(maxCut-4)}
		}
	}
	// Slot 0 is guaranteed non-clean so any run that opens at least one
	// connection injects at least one fault — obscheck's "chaos.injected
	// is nonzero under -chaos" family check holds by construction.
	if p.Slots[0].Kind == KindClean {
		s := root.Split("chaos-slot0")
		p.Slots[0] = Slot{Kind: KindDelay, DelayMs: 1 + s.IntN(maxDelayMs)}
	}
	if nodes >= 2 {
		for k := 0; k < partitions; k++ {
			s := root.SplitN("chaos-partition", k)
			from := s.IntN(nodes)
			to := s.PickOther(nodes, from)
			win := 50 + s.IntN(maxPartitionMs-50)
			start := s.IntN(periodMs - win)
			p.Partitions = append(p.Partitions, Partition{From: from, To: to, StartMs: start, EndMs: start + win})
		}
	}
	for k := 0; k < blackouts; k++ {
		s := root.SplitN("chaos-blackout", k)
		start := s.Uniform(0.25, 0.55)
		length := s.Uniform(0.08, 0.18)
		p.Blackouts = append(p.Blackouts, Blackout{StartFrac: start, EndFrac: start + length})
	}
	return p
}

// Chaos realizes a Plan at runtime: it grants connection profiles,
// answers partition queries against its wall clock, and exposes the
// blackout schedule for the harness to execute.
type Chaos struct {
	plan  *Plan
	start time.Time

	mu     sync.Mutex
	cursor int            // next slot to grant
	streak map[string]int // consecutive faulted grants per address
}

// FromPlan arms a previously serialized plan (replay).
func FromPlan(p *Plan) *Chaos {
	return &Chaos{plan: p, start: time.Now(), streak: make(map[string]int)}
}

// BlockedError reports a dial refused by an asymmetric partition.
// Wait is how long the current window has left: the caller's backoff
// should sleep at least that long before retrying, turning a
// partitioned contact into a delayed one rather than a dropped one.
type BlockedError struct {
	From, To int
	Wait     time.Duration
}

func (e *BlockedError) Error() string {
	return fmt.Sprintf("chaos: dial %d->%d blocked by partition for %v", e.From, e.To, e.Wait)
}

// partitionWait reports how long a From->To dial stays blocked at
// offset t into the partition cycle (0 = not blocked).
func (c *Chaos) partitionWait(from, to int, t time.Duration) time.Duration {
	ms := int(t.Milliseconds()) % c.plan.PeriodMs
	for _, w := range c.plan.Partitions {
		if w.From == from && w.To == to && ms >= w.StartMs && ms < w.EndMs {
			return time.Duration(w.EndMs-ms) * time.Millisecond
		}
	}
	return 0
}

// grant consumes the next connection slot for addr, honoring the
// relent bound: after RelentAfter consecutive faulted grants to the
// same address the next grant is forced clean and the streak resets,
// so a retrying dialer always converges.
func (c *Chaos) grant(addr string) Slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.streak[addr] >= c.plan.RelentAfter {
		c.streak[addr] = 0
		return Slot{Kind: KindClean}
	}
	s := c.plan.Slots[c.cursor%len(c.plan.Slots)]
	c.cursor++
	if s.Kind == KindClean {
		c.streak[addr] = 0
	} else {
		c.streak[addr]++
	}
	return s
}

// DialPeer opens one contact attempt from node `from` to node `to`,
// applying the partition schedule and the next connection profile.
// dialer hands back the underlying connection: a fresh dial, or the
// caller's idle connection to the peer, so a reused connection still
// meets the partition check and consumes one slot per attempt (the
// cluster passes its own dialer so obs accounting and timeouts stay in
// one place). A faulted slot wraps the connection for this attempt
// only; the caller must not reuse a connection it got back wrapped.
func (c *Chaos) DialPeer(from, to int, addr string, dialer func(addr string) (net.Conn, error)) (net.Conn, error) {
	if wait := c.partitionWait(from, to, time.Since(c.start)); wait > 0 {
		countInjected()
		return nil, &BlockedError{From: from, To: to, Wait: wait}
	}
	return c.dialFaulted(addr, dialer)
}

// DialDir dials the directory, applying the next connection profile
// (blackouts are executed by the harness stopping the directory, so a
// dark directory refuses connections for real).
func (c *Chaos) DialDir(addr string, dialer func(addr string) (net.Conn, error)) (net.Conn, error) {
	return c.dialFaulted(addr, dialer)
}

func (c *Chaos) dialFaulted(addr string, dialer func(addr string) (net.Conn, error)) (net.Conn, error) {
	slot := c.grant(addr)
	conn, err := dialer(addr)
	if err != nil {
		return nil, err
	}
	if slot.Kind == KindClean {
		return conn, nil
	}
	countInjected()
	return newFaultConn(conn, slot), nil
}

// Blackouts returns the scheduled directory outages.
func (c *Chaos) Blackouts() []Blackout { return c.plan.Blackouts }

func countInjected() {
	if col := obs.Active(); col != nil {
		col.Add(obs.ChaosInjected, 1)
	}
}
