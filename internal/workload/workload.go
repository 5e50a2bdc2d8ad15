// Package workload drives the message-level runtime (internal/node),
// in process or on any other Runtime, with a realistic multi-message
// traffic pattern: messages arrive as a Poisson process at random
// sources, each routed through onion groups with real cryptography,
// while the contact process runs underneath. It reports per-message
// outcomes and aggregate system health (buffer occupancy, rejects,
// purges) — the system-level view a deployment would monitor,
// complementing the per-message experiments of package experiment.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
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

// Result aggregates one workload run, closed-loop (Run) or open-loop
// (RunOpenLoop).
type Result struct {
	Records   []Record
	Injected  int
	Delivered int
	// DeliveryRatio is Delivered/Injected, 0 when nothing was injected.
	DeliveryRatio float64
	// OfferedRate (RunOpenLoop only) is the achieved injection rate
	// over the window (messages per minute) — under open-loop load it
	// tracks the configured rate regardless of how the system copes.
	OfferedRate float64
	// Latencies holds one send-to-delivery delay (sim minutes) per
	// delivered message, in record order; empty when nothing was
	// delivered.
	Latencies    []float64
	PeakBuffered int // only when buffers are tracked
	Totals       node.Stats
}

// Runtime is the message layer a workload drives: nodes that originate
// and receive messages, and a way to realize one contact between two
// of them. InProcess adapts the in-process node.Network; a live
// cluster implements it over its daemons.
type Runtime interface {
	// Node returns the node with the given ID.
	Node(id contact.NodeID) *node.Node
	// Meet executes one contact between a and b at sim time now and
	// reports how many payloads reached their destination.
	Meet(a, b contact.NodeID, now float64) (deliveries int, err error)
	// TotalStats aggregates the counters of every node.
	TotalStats() node.Stats
}

// InProcess adapts an in-process network to Runtime.
func InProcess(nw *node.Network) Runtime { return inProcess{nw} }

type inProcess struct{ *node.Network }

func (r inProcess) Meet(a, b contact.NodeID, now float64) (int, error) {
	return r.Network.Meet(a, b, now).Deliveries, nil
}

// driver interleaves scheduled message injection with the contact
// stream. It implements sim.Protocol.
type driver struct {
	rt      Runtime
	spec    Spec
	sends   []pendingSend // sorted by at
	nextIdx int
	records []Record
	// pendingAt lists, per node of the graph, the indices of records
	// still undelivered at that destination; pending counts them all.
	pendingAt [][]int
	pending   int
	peak      int
	rng       *rng.Stream
	// openLoop marks a RunOpenLoop drive: arrivals after the last
	// contact are still injected, and load counters and the
	// delivery-latency histogram are emitted into the active
	// observability collector (service mode watches them live).
	openLoop bool
	// err is the first failed Send or Meet; it ends the run.
	err error
}

type pendingSend struct {
	at       float64
	src, dst contact.NodeID
}

func newDriver(rt Runtime, n int, spec Spec, paths *rng.Stream) *driver {
	return &driver{rt: rt, spec: spec, pendingAt: make([][]int, n), rng: paths}
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
	d := newDriver(InProcess(nw), n, spec, root.Split("paths"))
	t := 0.0
	for i := 0; i < spec.Messages; i++ {
		t += arrivals.Exp(spec.ArrivalRate)
		src := contact.NodeID(arrivals.IntN(n))
		dst := contact.NodeID(arrivals.PickOther(n, int(src)))
		d.sends = append(d.sends, pendingSend{at: t, src: src, dst: dst})
	}
	return d.run(g, horizon, root.Split("contacts"))
}

// run drives the schedule over synthetic contacts on g until horizon
// and aggregates the outcome.
func (d *driver) run(g *contact.Graph, horizon float64, contacts *rng.Stream) (*Result, error) {
	sort.Slice(d.sends, func(i, j int) bool { return d.sends[i].at < d.sends[j].at })
	sim.RunSynthetic(g, horizon, contacts, d)
	if d.openLoop {
		// Open-loop accounting: arrivals after the last contact are
		// still injected (and counted) — offered load never adapts to
		// the contact process drying up.
		d.inject(math.Inf(1))
	}
	if d.err != nil {
		return nil, d.err
	}
	res := &Result{
		Records:      d.records,
		Injected:     len(d.records),
		PeakBuffered: d.peak,
		Totals:       d.rt.TotalStats(),
	}
	for _, r := range d.records {
		if r.Delivered {
			res.Delivered++
			res.Latencies = append(res.Latencies, r.DeliveredAt-r.SentAt)
		}
	}
	if res.Injected > 0 {
		res.DeliveryRatio = float64(res.Delivered) / float64(res.Injected)
	}
	return res, nil
}

// inject originates every scheduled message due by time t. A failed
// send (misconfiguration, e.g. too few groups for the path) ends the
// run: nothing was offered to the network, so it is not a loss.
func (d *driver) inject(t float64) {
	for d.err == nil && d.nextIdx < len(d.sends) && d.sends[d.nextIdx].at <= t {
		s := d.sends[d.nextIdx]
		d.nextIdx++
		expiry := 0.0
		if d.spec.ExpiryAfter > 0 {
			expiry = s.at + d.spec.ExpiryAfter
		}
		id, err := d.rt.Node(s.src).Send(node.SendSpec{
			Dst:     s.dst,
			Payload: make([]byte, d.spec.PayloadSize),
			Relays:  d.spec.Relays,
			Copies:  d.spec.Copies,
			Expiry:  expiry,
			PadTo:   d.spec.PadTo,
		}, d.rng.SplitN("path", d.nextIdx))
		if err != nil {
			d.err = fmt.Errorf("workload: inject message %d: %w", d.nextIdx-1, err)
			return
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
}

// OnContact implements sim.Protocol: inject due messages, execute the
// contact, then collect delivery outcomes.
func (d *driver) OnContact(t float64, a, b contact.NodeID) {
	d.inject(t)
	if d.err != nil {
		return
	}
	// A message is delivered only at a contact of its destination that
	// reports a delivery, so only then are a's and b's pending messages
	// worth polling.
	delivered, err := d.rt.Meet(a, b, t)
	if err != nil {
		d.err = fmt.Errorf("workload: contact %d-%d at t=%.3f: %w", a, b, t, err)
		return
	}
	if delivered > 0 {
		d.collect(a, t)
		d.collect(b, t)
	}
	if d.spec.TrackBuffers {
		total := 0
		for i := range d.pendingAt {
			total += d.rt.Node(contact.NodeID(i)).BufferLen()
		}
		if total > d.peak {
			d.peak = total
		}
	}
}

// collect marks the pending messages for dst that it has received as
// delivered at time t.
func (d *driver) collect(dst contact.NodeID, t float64) {
	n := d.rt.Node(dst)
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

// Done implements sim.Protocol: the run ends on the first failure, or
// when every message has been injected and either delivered or (with
// expiry) the horizon handles the rest.
func (d *driver) Done() bool {
	return d.err != nil || (d.nextIdx == len(d.sends) && d.pending == 0)
}
