package cluster

// The test-only side of the differential harness: workload injection,
// the in-process reference run, and the delivered sets both tiers are
// compared by.
// The exported names are used by the external cluster_test files too.

import (
	"fmt"
	"sort"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/trace"
)

// Delivery identifies one delivered message: which, to whom, in how
// many custody transfers.
type Delivery struct {
	MsgID string
	Dst   contact.NodeID
	Hops  int
}

// DeliverySet is a delivery list sorted by message ID, the unit of
// cross-tier comparison.
type DeliverySet []Delivery

// Diff returns a human-readable description of the first divergence
// from other, or "" when the sets are identical.
func (ds DeliverySet) Diff(other DeliverySet) string {
	if len(ds) != len(other) {
		return fmt.Sprintf("delivery counts differ: %d vs %d", len(ds), len(other))
	}
	for i := range ds {
		if ds[i] != other[i] {
			return fmt.Sprintf("delivery %d differs: %+v vs %+v", i, ds[i], other[i])
		}
	}
	return ""
}

// Deliveries collects the cluster's delivered set for the workload.
func (c *Cluster) Deliveries(msgs []Message) DeliverySet {
	out := make(DeliverySet, 0, len(msgs))
	for _, m := range msgs {
		if hops, ok := c.Daemon(m.Dst).Node().DeliveredHops(m.ID); ok {
			out = append(out, Delivery{MsgID: m.ID, Dst: m.Dst, Hops: hops})
		}
	}
	sortDeliveries(out)
	return out
}

// NetworkDeliveries collects an in-process network's delivered set for
// the workload.
func NetworkDeliveries(nw *node.Network, msgs []Message) DeliverySet {
	out := make(DeliverySet, 0, len(msgs))
	for _, m := range msgs {
		if hops, ok := nw.Node(m.Dst).DeliveredHops(m.ID); ok {
			out = append(out, Delivery{MsgID: m.ID, Dst: m.Dst, Hops: hops})
		}
	}
	sortDeliveries(out)
	return out
}

func sortDeliveries(ds DeliverySet) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].MsgID < ds[j].MsgID })
}

// spec converts a workload entry to a SendSpec.
func (m Message) spec() node.SendSpec {
	return node.SendSpec{
		Dst:     m.Dst,
		Payload: m.Payload,
		Relays:  m.Relays,
		Copies:  m.Copies,
		ID:      m.ID,
	}
}

// Inject originates every workload message at its source daemon.
func (c *Cluster) Inject(msgs []Message) error {
	for _, m := range msgs {
		if _, err := c.Daemon(m.Src).Send(m.spec(), PathStream(c.cfg.Seed, m.Index)); err != nil {
			return fmt.Errorf("cluster: inject message %d: %w", m.Index, err)
		}
	}
	return nil
}

// RunReference executes the workload on the in-process tier: a
// node.Network with the cluster's seed (hence the identical partition)
// driven by serial trace replay. It returns the network for delivery
// and stats inspection.
func RunReference(cfg Config, msgs []Message, tr *trace.Trace, from, horizon float64) (*node.Network, error) {
	nw, err := node.NewNetwork(node.Config{
		Nodes:       cfg.Nodes,
		GroupSize:   cfg.GroupSize,
		Seed:        cfg.Seed,
		Spray:       cfg.Spray,
		BufferLimit: cfg.BufferLimit,
	})
	if err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if _, err := nw.Node(m.Src).Send(m.spec(), PathStream(cfg.Seed, m.Index)); err != nil {
			return nil, fmt.Errorf("cluster: reference send %d: %w", m.Index, err)
		}
	}
	nw.DriveTrace(tr, from, horizon, nil)
	return nw, nil
}

// Subset projects the conserved counters out of full node stats.
func Subset(s node.Stats) StatsSubset {
	return StatsSubset{Sent: s.Sent, Forwarded: s.Forwarded, Carried: s.Carried, Delivered: s.Delivered}
}

// DirIncarnation returns the directory incarnation from the most
// recent welcome this daemon accepted.
func (d *Daemon) DirIncarnation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirIncarnation
}
