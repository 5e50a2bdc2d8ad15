package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The cluster replay: a loopback cluster (one directory, one daemon per
// node, real TCP between them) replaying a recorded synthetic contact
// trace one contact at a time. Arrivals are open-loop in sim time; the
// replay is closed-loop over contacts in wall time, so at most one
// contact's two sockets are open at once. Chaos stays off: its injected
// sleeps would swamp the measurement.
const (
	clusterNodes, clusterGroupSize = 20, 2
	clusterRelays, clusterCopies   = 2, 2
	clusterMessages                = 480 // per round at scale 1: 4 msgs/sim-min
	clusterHorizon, clusterDrain   = 120, 60
	clusterMinICT, clusterMaxICT   = 1, 20
	clusterPayload                 = 64
)

type clusterRound struct {
	seed  uint64
	cl    *cluster.Cluster
	trace *trace.Trace
	msgs  *messages
}

func setupCluster(cfg config) (round, error) {
	root := rng.New(cfg.seed)
	count := scaled(clusterMessages, cfg.scale)
	horizon := clusterHorizon * cfg.scale
	g := stratifiedGraph(clusterNodes, clusterMinICT, clusterMaxICT, root.Split("graph"))
	c := &clusterRound{
		seed:  cfg.seed,
		trace: cluster.RecordSynthetic(g, horizon+clusterDrain*cfg.scale, root.Split("contacts")),
		msgs:  newMessages(cfg.seed, clusterNodes, count, clusterPayload, workload.Arrivals{Rate: 4}, horizon, 0, root),
	}
	var err error
	c.cl, err = cluster.Launch(cluster.Config{Nodes: clusterNodes, GroupSize: clusterGroupSize, Seed: cfg.seed, Spray: true})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// close stops every daemon and the directory; each waits for its
// connection handlers to drain.
func (c *clusterRound) close() { _ = c.cl.Close() }

func (c *clusterRound) run(tr *tracer) (*result, error) {
	res := newResult()
	var col *obs.Collector
	if tr.on {
		col = obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
	}
	contacts := c.trace.Contacts
	res.lat = make([]time.Duration, len(contacts))
	offered := make([]int, len(contacts))
	m := c.msgs
	next, delivered, deliveries := 0, 0, 0
	rt := tr.begin(cRound)
	for j, ct := range contacts {
		if next < len(m.times) && m.times[next] <= ct.Start {
			in := tr.begin(cInject)
			sent := 0
			for ; next < len(m.times) && m.times[next] <= ct.Start; next++ {
				spec := m.spec(next, clusterRelays, clusterCopies)
				path := cluster.PathStream(c.seed, next)
				k := tr.begin(cDaemonSend)
				_, err := c.cl.Daemon(m.src[next]).Send(spec, path)
				tr.end(k)
				if err != nil {
					res.fail("send %d: %v", next, err)
					continue
				}
				m.sent(next)
				sent++
			}
			tr.end(in, sent)
		}
		addr := c.cl.Daemon(ct.B).Addr()
		k := tr.begin(cContact)
		rep, err := c.cl.Daemon(ct.A).Contact(ct.B, addr, ct.Start)
		res.lat[j] = tr.end(k, rep.Offered, rep.Transfers, rep.Deliveries, rep.Rejected)
		offered[j] = rep.Offered
		if err != nil {
			res.fail("contact %d-%d at t=%.3f: %v", ct.A, ct.B, ct.Start, err)
		}
		deliveries += rep.Deliveries
		if rep.Deliveries > 0 {
			p := tr.begin(cPoll)
			found := m.poll(c.cl.Daemon(ct.A).Node(), ct.Start, res) + m.poll(c.cl.Daemon(ct.B).Node(), ct.Start, res)
			tr.end(p, found)
			delivered += found
			if found != rep.Deliveries {
				res.fail("contact %d-%d at t=%.3f reported %d deliveries, harness found %d", ct.A, ct.B, ct.Start, rep.Deliveries, found)
			}
		}
	}
	k := tr.begin(cInvariant)
	inv := invariant.Check(c.cl, c.invariantSpec())
	tr.end(k, len(inv.Violations))
	k = tr.begin(cCheck)
	if err := inv.Err(); err != nil {
		res.fail("%v", err)
	}
	st := c.cl.TotalStats()
	if st.Delivered != delivered || deliveries != delivered {
		res.fail("deliveries disagree: cluster counted %d, contacts reported %d, harness saw %d", st.Delivered, deliveries, delivered)
	}
	if st.Sent != len(m.times) {
		res.fail("injected %d of %d messages", st.Sent, len(m.times))
	}
	tr.end(k)
	res.wall = tr.end(rt)
	res.ops = st.Sent
	for name, v := range map[string]int{
		"contacts": len(contacts), "injected": st.Sent, "delivered": st.Delivered, "transfers": st.Forwarded,
		"refused": st.Refused, "purged": st.Purged, "expired": st.Expired, "backpressure_dropped": st.BackpressureDropped,
	} {
		res.counts[name] = int64(v)
	}
	res.extra["delivery_ratio"] = float64(st.Delivered) / float64(st.Sent)
	if tr.on {
		c.layerMetrics(tr, col, res, offered)
	}
	return res, nil
}

func (c *clusterRound) invariantSpec() invariant.Spec {
	m := c.msgs
	spec := invariant.Spec{Messages: make([]invariant.Message, len(m.ids))}
	for i, id := range m.ids {
		spec.Messages[i] = invariant.Message{ID: id, Src: m.src[i], Dst: m.dst[i], Copies: clusterCopies}
	}
	return spec
}

// layerMetrics splits contact wall into a fixed part (dial, hello, the
// end-of-offers handshake: the median contact that offered nothing) and
// a per-offer part (the least-squares slope of wall against offers: one
// offer and its verdict round trip, including the peer's Node.Receive).
func (c *clusterRound) layerMetrics(tr *tracer, col *obs.Collector, res *result, offered []int) {
	var idle []float64
	x := make([]float64, len(offered))
	y := make([]float64, len(offered))
	for j, n := range offered {
		x[j], y[j] = float64(n), us(res.lat[j])
		if n == 0 {
			idle = append(idle, y[j])
		}
	}
	l := res.layer
	l["cluster.send_us"] = tr.meanNs(cDaemonSend, -1) / 1e3
	l["cluster.contact_fixed_us"] = median(idle)
	l["cluster.offer_us"], _, _ = fitLine(x, y)
	n := float64(max(len(offered), 1))
	l["cluster.dials"] = float64(col.Get(obs.ClusterDials))
	l["cluster.frames_per_contact"] = float64(col.Get(obs.ClusterFramesOut)) / n
	l["cluster.bytes_per_contact"] = float64(col.Get(obs.ClusterBytesOut)) / n
	l["cluster.frame_errors"] = float64(col.Get(obs.ClusterFrameErrors))
	l["retry.attempts"] = float64(col.Get(obs.RetryAttempts))
	l["invariant.check_s"] = time.Duration(tr.total(cInvariant).dur).Seconds()
}
