package cluster

// The contact scheduler: replay a recorded trace as real link events
// between daemons. sim.Replay feeds contacts to an in-process protocol
// strictly serially; over sockets that would leave every daemon idle
// while one pair talks. Replay instead runs contacts concurrently
// under a dependency order: contact i waits for the latest earlier
// contact touching either of its endpoints. Two contacts over disjoint
// node pairs commute — the custody protocol only touches its two
// endpoints — so the final delivered sets and per-node stats are
// identical to serial replay at every worker count.
//
// Only the differential, chaos, blackout and wire-cost suites replay
// traces over a live cluster (binaries drive Daemon.Contact directly),
// so the scheduler lives with them; the external cluster_test files
// reach it too.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/contact"
	"repro/internal/trace"
)

// Replay replays the trace contacts whose start times fall in
// [from, from+horizon] (the same window sim.Replay uses) as live
// contacts, with up to workers contacts in flight at once. The
// initiator of each contact is the trace's A endpoint, mirroring
// Network.Meet(x, y) offering x's custody first. It returns the number
// of contacts executed.
func (c *Cluster) Replay(tr *trace.Trace, from, horizon float64, workers int) (int, error) {
	if workers < 1 {
		return 0, fmt.Errorf("cluster: replay needs at least 1 worker, got %d", workers)
	}
	if horizon <= 0 {
		return 0, nil
	}
	end := from + horizon
	idx := sort.Search(len(tr.Contacts), func(i int) bool {
		return tr.Contacts[i].Start >= from
	})
	var window []trace.Contact
	for ; idx < len(tr.Contacts); idx++ {
		if tr.Contacts[idx].Start > end {
			break
		}
		window = append(window, tr.Contacts[idx])
	}
	if len(window) == 0 {
		return 0, nil
	}

	// Dependency edges: each contact waits on the previous contact
	// touching either endpoint.
	done := make([]chan struct{}, len(window))
	for i := range done {
		done[i] = make(chan struct{})
	}
	lastTouch := make(map[contact.NodeID]int, tr.NodeCount)
	deps := make([][]chan struct{}, len(window))
	for i, ct := range window {
		for _, v := range []contact.NodeID{ct.A, ct.B} {
			if j, ok := lastTouch[v]; ok && (len(deps[i]) == 0 || deps[i][len(deps[i])-1] != done[j]) {
				deps[i] = append(deps[i], done[j])
			}
			lastTouch[v] = i
		}
	}

	sem := make(chan struct{}, workers)
	errs := make([]error, len(window))
	var wg sync.WaitGroup
	for i, ct := range window {
		wg.Add(1)
		go func(i int, ct trace.Contact) {
			defer wg.Done()
			defer close(done[i])
			for _, dep := range deps[i] {
				<-dep
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			if ct.A == ct.B {
				return
			}
			addr, ok := c.peerAddr(ct.B)
			if !ok {
				errs[i] = fmt.Errorf("cluster: contact at t=%.3f: node %d not registered", ct.Start, ct.B)
				return
			}
			if _, err := c.Daemon(ct.A).Contact(ct.B, addr, ct.Start); err != nil {
				errs[i] = fmt.Errorf("cluster: contact %d-%d at t=%.3f: %w", ct.A, ct.B, ct.Start, err)
			}
		}(i, ct)
	}
	wg.Wait()
	return len(window), errors.Join(errs...)
}

// peerAddr resolves node id's contact address: the directory's live
// registration when it answers, falling back to the daemon's own
// listening address so contacts keep flowing through a directory
// blackout.
func (c *Cluster) peerAddr(id contact.NodeID) (string, bool) {
	if addr, ok := c.dir.MemberAddr(id); ok {
		return addr, true
	}
	if id >= 0 && int(id) < len(c.daemons) && c.daemons[id] != nil {
		return c.daemons[id].Addr(), true
	}
	return "", false
}
