package main

import (
	"runtime"
	"time"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simSpec is one configuration of the message-level runtime driven by
// the synthetic contact engine: node.NewNetwork under sim.RunSynthetic,
// with the harness as the sim.Protocol.
type simSpec struct {
	nodes, groupSize, relays, copies int
	spray, antiPackets               bool
	bufferLimit, reofferLimit        int
	minICT, maxICT                   float64 // contact graph: mean inter-contact time range (sim minutes)
	arrivals                         workload.Arrivals
	messages                         int     // injected per round at scale 1
	horizon, drain, expiry           float64 // sim minutes; horizon and drain scale with -scale
	payload                          int
}

// simSteady is the normal operating point: expiry keeps custody bounded
// at tens of onions per node, and Network.Meet is most of the wall.
var simSteady = simSpec{
	nodes: 60, groupSize: 6, relays: 3, copies: 2, spray: true,
	minICT: 1, maxICT: 30,
	arrivals: workload.Arrivals{Rate: 30},
	messages: 10800, horizon: 360, drain: 60, expiry: 60, payload: 64,
}

// simBacklog runs the same runtime under back-pressure: small custody
// buffers refuse offers, copies are dropped after three refusals, and
// delivery acknowledgements are gossiped at every contact.
var simBacklog = simSpec{
	nodes: 40, groupSize: 5, relays: 2, copies: 2, spray: true, antiPackets: true,
	bufferLimit: 6, reofferLimit: 3,
	minICT: 1, maxICT: 20,
	arrivals: workload.Arrivals{Rate: 8, Burst: 4, BurstFraction: 0.1, BurstDwell: 1},
	messages: 1200, horizon: 150, drain: 75, expiry: 600, payload: 64,
}

func setupSimSteady(cfg config) (round, error)  { return setupSim(simSteady, cfg) }
func setupSimBacklog(cfg config) (round, error) { return setupSim(simBacklog, cfg) }

type simRound struct {
	spec   simSpec
	seed   uint64
	nw     *node.Network
	graph  *contact.Graph
	window float64 // arrival window plus drain: the contact horizon
	msgs   *messages
	paths  *rng.Stream

	tr                              *tracer
	res                             *result
	lat                             []time.Duration
	next                            int
	delivered                       int
	transfers, rejected, deliveries int // summed over MeetReports
}

func setupSim(spec simSpec, cfg config) (round, error) {
	root := rng.New(cfg.seed)
	count := scaled(spec.messages, cfg.scale)
	horizon := spec.horizon * cfg.scale
	nw, err := node.NewNetwork(node.Config{
		Nodes: spec.nodes, GroupSize: spec.groupSize, Seed: cfg.seed, Spray: spec.spray,
		AntiPackets: spec.antiPackets, BufferLimit: spec.bufferLimit, ReofferLimit: spec.reofferLimit,
	})
	if err != nil {
		return nil, err
	}
	s := &simRound{
		spec:   spec,
		seed:   cfg.seed,
		nw:     nw,
		graph:  stratifiedGraph(spec.nodes, spec.minICT, spec.maxICT, root.Split("graph")),
		window: horizon + spec.drain*cfg.scale,
		msgs:   newMessages(cfg.seed, spec.nodes, count, spec.payload, spec.arrivals, horizon, spec.expiry, root),
		paths:  root.Split("paths"),
	}
	rate := 0.0
	s.graph.Pairs(func(_, _ contact.NodeID, r float64) { rate += r })
	s.lat = make([]time.Duration, 0, int(1.1*rate*s.window)+16)
	return s, nil
}

func (s *simRound) close() {}

func (s *simRound) run(tr *tracer) (*result, error) {
	s.tr, s.res = tr, newResult()
	var col *obs.Collector
	var before, after runtime.MemStats
	if tr.on {
		col = obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
		runtime.ReadMemStats(&before)
	}
	rt := tr.begin(cRound)
	rs := tr.begin(cRunSynthetic)
	contacts := sim.RunSynthetic(s.graph, s.window, rng.New(s.seed).Split("contacts"), s)
	tr.end(rs, contacts)
	ck := tr.begin(cCheck)
	st := s.check(contacts)
	tr.end(ck)
	s.res.wall = tr.end(rt)
	s.res.lat = s.lat
	s.res.ops = st.Sent
	s.res.extra["delivery_ratio"] = float64(st.Delivered) / float64(st.Sent)
	if tr.on {
		runtime.ReadMemStats(&after)
		l := s.res.layer
		l["node.send_us"] = tr.meanNs(cSend, -1) / 1e3
		l["node.meet_us"] = tr.meanNs(cMeet, -1) / 1e3
		l["node.meet_us_per_transfer"] = float64(tr.total(cMeet).dur) / 1e3 / float64(max(s.transfers, 1))
		l["node.contacts"] = float64(contacts)
		l["node.transfers"] = float64(s.transfers)
		l["node.rejected"] = float64(s.rejected)
		l["node.refused"] = float64(st.Refused)
		l["node.purged"] = float64(st.Purged)
		l["node.expired"] = float64(st.Expired)
		l["node.backpressure_dropped"] = float64(st.BackpressureDropped)
		l["node.peak_custody"] = float64(col.Get(obs.NodeCustodyHighWater))
		l["node.transfer_yield"] = float64(s.transfers) / float64(max(s.transfers+s.rejected, 1))
		l["node.allocs_per_contact"] = float64(after.Mallocs-before.Mallocs) / float64(max(contacts, 1))
		l["sim.des_self_s"] = time.Duration(tr.total(cRunSynthetic).self).Seconds()
	}
	return s.res, nil
}

// OnContact implements sim.Protocol: inject the messages that are due,
// run the contact, and look for deliveries only when it made some.
func (s *simRound) OnContact(t float64, a, b contact.NodeID) {
	if s.next < len(s.msgs.times) && s.msgs.times[s.next] <= t {
		s.inject(t)
	}
	m := s.tr.begin(cMeet)
	rep := s.nw.Meet(a, b, t)
	s.lat = append(s.lat, s.tr.end(m, rep.Transfers, rep.Deliveries, rep.Rejected, rep.Refused, rep.Dropped))
	s.transfers += rep.Transfers
	s.rejected += rep.Rejected
	s.deliveries += rep.Deliveries
	if rep.Deliveries > 0 {
		p := s.tr.begin(cPoll)
		found := s.msgs.poll(s.nw.Node(a), t, s.res) + s.msgs.poll(s.nw.Node(b), t, s.res)
		s.tr.end(p, found)
		s.delivered += found
		if found != rep.Deliveries {
			s.res.fail("contact %d-%d at t=%.3f reported %d deliveries, harness found %d", a, b, t, rep.Deliveries, found)
		}
	}
}

// Done implements sim.Protocol; a round always runs to its horizon.
func (s *simRound) Done() bool { return false }

func (s *simRound) inject(t float64) {
	in := s.tr.begin(cInject)
	sent := 0
	for ; s.next < len(s.msgs.times) && s.msgs.times[s.next] <= t; s.next++ {
		i := s.next
		spec := s.msgs.spec(i, s.spec.relays, s.spec.copies)
		path := s.paths.SplitN("path", i)
		sd := s.tr.begin(cSend)
		_, err := s.nw.Node(s.msgs.src[i]).Send(spec, path)
		s.tr.end(sd)
		if err != nil {
			s.res.fail("send %d: %v", i, err)
			continue
		}
		s.msgs.sent(i)
		sent++
	}
	s.tr.end(in, sent)
}

// check reconciles the harness's view with the network's counters: every
// delivery the contacts reported was seen once by polling, and no
// message reached its destination twice.
func (s *simRound) check(contacts int) node.Stats {
	st := s.nw.TotalStats()
	distinct := 0
	for v := 0; v < s.spec.nodes; v++ {
		distinct += s.nw.Node(contact.NodeID(v)).DeliveredCount()
	}
	if st.Delivered != s.delivered || s.deliveries != s.delivered || distinct != s.delivered {
		s.res.fail("deliveries disagree: network counted %d, contacts reported %d, %d distinct, harness saw %d",
			st.Delivered, s.deliveries, distinct, s.delivered)
	}
	for k, v := range map[string]int{
		"contacts": contacts, "injected": st.Sent, "delivered": st.Delivered, "transfers": st.Forwarded,
		"rejected": st.Rejected, "refused": st.Refused, "purged": st.Purged, "expired": st.Expired,
		"backpressure_dropped": st.BackpressureDropped,
	} {
		s.res.counts[k] = int64(v)
	}
	if st.Sent != len(s.msgs.times) {
		s.res.fail("injected %d of %d messages", st.Sent, len(s.msgs.times))
	}
	return st
}

var _ sim.Protocol = (*simRound)(nil)
