// Package workload drives the message-level runtime (internal/node)
// with a realistic multi-message traffic pattern: messages arrive as a
// Poisson process at random sources, each routed through onion groups
// with real cryptography, while the contact process runs underneath.
// It reports per-message outcomes and aggregate system health (buffer
// occupancy, rejects, purges) — the system-level view a deployment
// would monitor, complementing the per-message experiments of package
// experiment.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Spec describes the traffic offered to the network.
type Spec struct {
	Messages    int     // total messages to inject
	ArrivalRate float64 // Poisson arrivals per minute
	PayloadSize int     // bytes per message
	Relays      int     // K onion groups per message
	Copies      int     // L tickets per message
	PadTo       int     // onion padding target (0 = none)
	ExpiryAfter float64 // per-message relative deadline (0 = none)
	Seed        uint64
	// TrackBuffers samples total buffered onions after every contact
	// (moderate cost); PeakBuffered is zero without it.
	TrackBuffers bool
}

func (s Spec) validate() error {
	switch {
	case s.Messages < 1:
		return fmt.Errorf("workload: need at least one message, got %d", s.Messages)
	case s.ArrivalRate <= 0:
		return fmt.Errorf("workload: arrival rate must be positive, got %v", s.ArrivalRate)
	case s.Relays < 1:
		return fmt.Errorf("workload: need at least one relay group, got %d", s.Relays)
	case s.Copies < 1:
		return fmt.Errorf("workload: need at least one copy, got %d", s.Copies)
	case s.PayloadSize < 0:
		return fmt.Errorf("workload: negative payload size %d", s.PayloadSize)
	case s.ExpiryAfter < 0:
		return fmt.Errorf("workload: negative expiry %v", s.ExpiryAfter)
	}
	return nil
}

// Record is the outcome of one injected message.
type Record struct {
	ID          string
	Src, Dst    contact.NodeID
	SentAt      float64
	Delivered   bool
	DeliveredAt float64
}

// Result aggregates a workload run.
type Result struct {
	Records      []Record
	Injected     int
	Delivered    int
	DeliveryRate float64
	Delay        stats.Summary // over delivered messages
	PeakBuffered int           // only when Spec.TrackBuffers
	Totals       node.Stats
}

// driver interleaves Poisson message injection with the contact
// stream. It implements sim.Protocol.
type driver struct {
	nw      *node.Network
	graphN  int
	spec    Spec
	sends   []pendingSend // sorted by at
	nextIdx int
	records []Record
	// pendingAt lists, per destination node, the indices of records
	// still undelivered; pending counts them all.
	pendingAt [][]int
	pending   int
	peak      int
	rng       *rng.Stream
	// openLoop marks a RunOpenLoop drive: load counters and the
	// delivery-latency histogram are emitted into the active
	// observability collector (service mode watches them live).
	openLoop bool
}

type pendingSend struct {
	at       float64
	src, dst contact.NodeID
}

// Run drives the network with the workload over synthetic contacts on
// the given graph until the horizon (minutes).
func Run(nw *node.Network, g *contact.Graph, spec Spec, horizon float64) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: horizon must be positive, got %v", horizon)
	}
	root := rng.New(spec.Seed)
	arrivals := root.Split("arrivals")
	n := g.N()
	d := &driver{
		nw:        nw,
		graphN:    n,
		spec:      spec,
		pendingAt: make([][]int, n),
		rng:       root.Split("paths"),
	}
	t := 0.0
	for i := 0; i < spec.Messages; i++ {
		t += arrivals.Exp(spec.ArrivalRate)
		src := contact.NodeID(arrivals.IntN(n))
		dst := contact.NodeID(arrivals.PickOther(n, int(src)))
		d.sends = append(d.sends, pendingSend{at: t, src: src, dst: dst})
	}
	sort.Slice(d.sends, func(i, j int) bool { return d.sends[i].at < d.sends[j].at })

	sim.RunSynthetic(g, horizon, root.Split("contacts"), d)

	res := &Result{
		Records:      d.records,
		Injected:     len(d.records),
		PeakBuffered: d.peak,
		Totals:       nw.TotalStats(),
	}
	var delay stats.Accumulator
	for _, r := range d.records {
		if r.Delivered {
			res.Delivered++
			delay.Add(r.DeliveredAt - r.SentAt)
		}
	}
	if res.Injected > 0 {
		res.DeliveryRate = float64(res.Delivered) / float64(res.Injected)
	}
	res.Delay = delay.Summarize()
	return res, nil
}

// OnContact implements sim.Protocol: inject due messages, execute the
// contact, then collect delivery outcomes.
func (d *driver) OnContact(t float64, a, b contact.NodeID) {
	for d.nextIdx < len(d.sends) && d.sends[d.nextIdx].at <= t {
		s := d.sends[d.nextIdx]
		d.nextIdx++
		expiry := 0.0
		if d.spec.ExpiryAfter > 0 {
			expiry = s.at + d.spec.ExpiryAfter
		}
		id, err := d.nw.Node(s.src).Send(node.SendSpec{
			Dst:     s.dst,
			Payload: make([]byte, d.spec.PayloadSize),
			Relays:  d.spec.Relays,
			Copies:  d.spec.Copies,
			Expiry:  expiry,
			PadTo:   d.spec.PadTo,
		}, d.rng.SplitN("path", d.nextIdx))
		if err != nil {
			// A send can fail only on misconfiguration (e.g. too few
			// groups); record it as an undeliverable injection.
			d.records = append(d.records, Record{Src: s.src, Dst: s.dst, SentAt: s.at})
			continue
		}
		d.records = append(d.records, Record{ID: id, Src: s.src, Dst: s.dst, SentAt: s.at})
		d.pendingAt[s.dst] = append(d.pendingAt[s.dst], len(d.records)-1)
		d.pending++
		if d.openLoop {
			if c := obs.Active(); c != nil {
				c.Add(obs.LoadInjected, 1)
			}
		}
	}

	// A message is delivered only at a contact of its destination that
	// reports a delivery, so only then are a's and b's pending messages
	// worth polling.
	if rep := d.nw.Meet(a, b, t); rep.Deliveries > 0 {
		d.collect(a, t)
		d.collect(b, t)
	}
	if d.spec.TrackBuffers {
		total := 0
		for i := 0; i < d.graphN; i++ {
			total += d.nw.Node(contact.NodeID(i)).BufferLen()
		}
		if total > d.peak {
			d.peak = total
		}
	}
}

// collect marks the pending messages for dst that it has received as
// delivered at time t.
func (d *driver) collect(dst contact.NodeID, t float64) {
	n := d.nw.Node(dst)
	still := d.pendingAt[dst][:0]
	for _, idx := range d.pendingAt[dst] {
		rec := &d.records[idx]
		if _, ok := n.DeliveredHops(rec.ID); !ok {
			still = append(still, idx)
			continue
		}
		rec.Delivered = true
		rec.DeliveredAt = t
		d.pending--
		if d.openLoop {
			ObserveDelivery(t - rec.SentAt)
		}
	}
	d.pendingAt[dst] = still
}

// Done implements sim.Protocol: the run ends when every message has
// been injected and either delivered or (with expiry) the horizon
// handles the rest.
func (d *driver) Done() bool {
	return d.nextIdx == len(d.sends) && d.pending == 0
}
