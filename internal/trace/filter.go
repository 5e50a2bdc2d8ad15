package trace

import (
	"fmt"
	"sort"

	"repro/internal/contact"
)

// Preprocessing utilities mirroring what the paper does to the raw
// CRAWDAD files: "we only consider the contacts between mobile
// devices, i.e., iMotes, by excluding stationary nodes and external
// devices" (Sec. V-A). Real haggle dumps include fixed base stations
// and one-off external sightings; FilterNodes and Window carve out the
// mobile sub-trace the experiments run on.

// FilterNodes returns a new trace containing only contacts whose both
// endpoints satisfy keep. Node IDs are re-compacted to [0, NodeCount).
func (t *Trace) FilterNodes(keep func(contact.NodeID) bool) (*Trace, error) {
	if keep == nil {
		return nil, fmt.Errorf("trace: nil keep predicate")
	}
	remap := make(map[contact.NodeID]contact.NodeID)
	next := contact.NodeID(0)
	mapped := func(v contact.NodeID) contact.NodeID {
		id, ok := remap[v]
		if !ok {
			id = next
			remap[v] = id
			next++
		}
		return id
	}
	out := &Trace{}
	for _, c := range t.Contacts {
		if !keep(c.A) || !keep(c.B) {
			continue
		}
		out.Contacts = append(out.Contacts, Contact{
			A: mapped(c.A), B: mapped(c.B), Start: c.Start, End: c.End,
		})
	}
	if len(out.Contacts) == 0 {
		return nil, fmt.Errorf("trace: filter removed every contact")
	}
	out.NodeCount = int(next)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// KeepBusiest keeps the n most active nodes (by contact count, ties
// broken by lower ID) and compacts IDs to [0, n) — how a small cluster
// replays a campus-scale trace. A trace already at or below n nodes is
// returned unchanged.
func (t *Trace) KeepBusiest(n int) (*Trace, error) {
	if n < 2 {
		return nil, fmt.Errorf("trace: keeping %d nodes leaves no contacts", n)
	}
	if t.NodeCount <= n {
		return t, nil
	}
	counts := make([]int, t.NodeCount)
	for _, c := range t.Contacts {
		counts[c.A]++
		counts[c.B]++
	}
	order := make([]int, t.NodeCount)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	keep := make(map[contact.NodeID]bool, n)
	for _, v := range order[:n] {
		keep[contact.NodeID(v)] = true
	}
	return t.FilterNodes(func(v contact.NodeID) bool { return keep[v] })
}
