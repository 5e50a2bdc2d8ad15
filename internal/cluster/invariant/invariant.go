// Package invariant is the always-on safety checker for the live tier:
// given a launched cluster and the workload it ran, Check proves the
// cluster-wide invariants that chaos, crashes, and blackouts must never
// break, and reports every violation it finds. It is wired into the
// differential harness, cmd/dtnload soaks, and the CI chaos-soak job,
// so a custody bug surfaces as a named violated invariant rather than a
// diffuse stats mismatch.
//
// The rule families:
//
//   - exactly-once: every message is delivered at most once, and only
//     at its addressed destination. (The seen-log discipline: a verdict
//     lost to a torn connection may delay a delivery, never double it.)
//   - custody-conservation: when nothing was legitimately dropped (no
//     expiries, no backpressure drops, no crash losses, no purges),
//     every undelivered message still has at least one custodian — a
//     blackout or chaos run that "loses" a bundle fails here.
//   - ticket-bound: the spray ticket total across all custodians of a
//     message never exceeds its copy budget L (transfers move tickets,
//     they never mint them), and no held copy carries less than one.
//   - share-threshold: every welcome the directory ever served carried
//     exactly Threshold Shamir shares per key — the minimum that
//     reconstructs — even across directory crashes and restarts, so no
//     issuance leaked margin to an eavesdropper.
//   - incarnation-monotonic: per node, admitted registrations carry
//     strictly increasing incarnations (a restarted directory with an
//     empty member table must not let a replayed join regress one).
package invariant

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/contact"
)

// Message is one workload message's identity as the checker needs it.
type Message struct {
	ID     string
	Src    contact.NodeID
	Dst    contact.NodeID
	Copies int // spray ticket budget L (0 = unknown, bound not checked)
}

// Spec is the workload a cluster ran, for invariant purposes.
type Spec struct {
	Messages []Message
}

// Violation is one broken invariant.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report is the outcome of one Check.
type Report struct {
	Rules      int // rule families evaluated
	Messages   int // workload messages examined
	Violations []Violation
}

// Clean reports whether every invariant held.
func (r Report) Clean() bool { return len(r.Violations) == 0 }

// Err folds the violations into one error, nil when clean.
func (r Report) Err() error {
	if r.Clean() {
		return nil
	}
	errs := make([]error, len(r.Violations))
	for i, v := range r.Violations {
		errs[i] = errors.New(v.String())
	}
	return fmt.Errorf("invariant: %d violation(s): %w", len(r.Violations), errors.Join(errs...))
}

func (r *Report) add(rule, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Check evaluates every rule family against the cluster's current
// state. It is safe to call at any quiescent point (between contacts);
// harnesses call it after each epoch and at shutdown.
func Check(c *cluster.Cluster, spec Spec) Report {
	rep := Report{Rules: 5, Messages: len(spec.Messages)}
	byID := make(map[string]Message, len(spec.Messages))
	for _, m := range spec.Messages {
		byID[m.ID] = m
	}
	daemons := c.Nodes()

	// exactly-once: collect every delivery in the fleet.
	deliveredAt := make(map[string][]int)
	for _, d := range daemons {
		if d == nil {
			continue
		}
		for _, rec := range d.Node().DeliveryRecords() {
			deliveredAt[rec.MsgID] = append(deliveredAt[rec.MsgID], d.ID())
		}
	}
	for _, m := range spec.Messages {
		nodes := deliveredAt[m.ID]
		if len(nodes) > 1 {
			rep.add("exactly-once", "message %s delivered %d times (nodes %v)", m.ID, len(nodes), nodes)
		}
		for _, n := range nodes {
			if contact.NodeID(n) != m.Dst {
				rep.add("exactly-once", "message %s delivered at node %d, addressed to node %d", m.ID, n, m.Dst)
			}
		}
	}
	for id, nodes := range deliveredAt {
		if _, known := byID[id]; !known {
			rep.add("exactly-once", "delivery of message %s that no workload sent (nodes %v)", id, nodes)
		}
	}

	// Custody and ticket census across the fleet.
	custodians := make(map[string]int)
	tickets := make(map[string]int)
	for _, d := range daemons {
		if d == nil {
			continue
		}
		for _, cr := range d.Node().CustodySnapshot() {
			custodians[cr.MsgID]++
			tickets[cr.MsgID] += cr.Tickets
			if cr.Tickets < 1 {
				rep.add("ticket-bound", "node %d holds message %s with %d tickets", d.ID(), cr.MsgID, cr.Tickets)
			}
			if _, known := byID[cr.MsgID]; !known {
				rep.add("custody-conservation", "node %d holds message %s that no workload sent", d.ID(), cr.MsgID)
			}
		}
	}
	for _, m := range spec.Messages {
		if m.Copies > 0 && tickets[m.ID] > m.Copies {
			rep.add("ticket-bound", "message %s holds %d tickets across %d custodians, budget is %d",
				m.ID, tickets[m.ID], custodians[m.ID], m.Copies)
		}
	}

	// custody-conservation: strict only when the stats prove nothing was
	// legitimately dropped — then "neither delivered nor held" means a
	// bundle vanished.
	stats := c.TotalStats()
	if stats.Expired+stats.Purged+stats.BackpressureDropped+stats.CrashDropped == 0 {
		for _, m := range spec.Messages {
			if len(deliveredAt[m.ID]) == 0 && custodians[m.ID] == 0 {
				rep.add("custody-conservation",
					"message %s neither delivered nor in any custody buffer, with no recorded drop", m.ID)
			}
		}
	}

	// share-threshold: audit the directory's entire issuance history.
	audit := c.Dir().Audit()
	if audit.Welcomes > 0 {
		if audit.MaxShares > audit.Threshold {
			rep.add("share-threshold", "a welcome carried %d shares per key, threshold is %d",
				audit.MaxShares, audit.Threshold)
		}
		if audit.MinShares < audit.Threshold {
			rep.add("share-threshold", "a welcome carried only %d shares per key, threshold is %d",
				audit.MinShares, audit.Threshold)
		}
	}

	// incarnation-monotonic: admitted registrations never regress, even
	// across a directory restart that emptied the member table.
	last := make(map[int]uint64)
	for _, ev := range audit.Registrations {
		if prev, ok := last[ev.Node]; ok && ev.Incarnation <= prev {
			rep.add("incarnation-monotonic",
				"node %d re-admitted at incarnation %d after %d", ev.Node, ev.Incarnation, prev)
		}
		last[ev.Node] = ev.Incarnation
	}
	return rep
}
