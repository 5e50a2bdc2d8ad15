package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Every input a workload feeds the system comes from these generators,
// each drawing from its own labelled substream of the run seed.

// stratifiedGraph is contact.NewRandom's model — every pair meets with a
// mean inter-contact time uniform on [minICT, maxICT) — drawn by
// stratification: the P pairs take the P equal-width strata of that
// range (jittered within each), assigned by a seeded shuffle. The total
// contact rate then hardly moves with the seed, so the spread between
// runs at different seeds measures the code rather than the draw: with
// contact.NewRandom and Arrivals.Schedule as they are, the seed alone
// moves a round's messages per contact by an interquartile 9-14% on
// cluster-replay and sim-backlog; with these two generators, by 2-3%
// (bench/README.md, Calibration).
func stratifiedGraph(n int, minICT, maxICT float64, s *rng.Stream) *contact.Graph {
	pairs := n * (n - 1) / 2
	perm := s.Perm(pairs)
	g := contact.NewGraph(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := (float64(perm[k]) + s.Float64()) / float64(pairs)
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1/(minICT+u*(maxICT-minICT)))
			k++
		}
	}
	return g
}

// arrivalTimes draws exactly count arrivals from the process and
// stretches them so the last lands at horizon: the seed shapes the
// arrival pattern (Poisson gaps, MMPP bursts) while the offered load of
// a round stays fixed. The stretch scales an MMPP's burst dwell by the
// same factor, about horizon·rate/count: over 200 seeds at benchmark size
// it lies in [0.88, 1.13] for 9 seeds in 10 on sim-backlog, and within
// 1.5% of 1 on the Poisson sim-steady.
func arrivalTimes(a workload.Arrivals, count int, horizon float64, s *rng.Stream) []float64 {
	window := 4 * float64(count) / a.Rate
	times := a.Schedule(window, s)
	for len(times) < count {
		window *= 2
		times = a.Schedule(window, s)
	}
	times = times[:count]
	stretch := horizon / times[count-1]
	for i := range times {
		times[i] *= stretch
	}
	return times
}

// endpoints draws a distinct (source, destination) pair per message.
func endpoints(n, count int, s *rng.Stream) (src, dst []contact.NodeID) {
	src = make([]contact.NodeID, count)
	dst = make([]contact.NodeID, count)
	for i := range src {
		a := s.IntN(n)
		src[i], dst[i] = contact.NodeID(a), contact.NodeID(s.PickOther(n, a))
	}
	return src, dst
}

// randomBytes fills n seeded bytes.
func randomBytes(n int, s *rng.Stream) []byte {
	b := make([]byte, (n+7)&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], s.Uint64())
	}
	return b[:n]
}

// messages is a round's offered load for the message workloads — when
// each message arrives, its endpoints, ID and payload bytes — plus the
// harness's record of which are still undelivered at their destination.
type messages struct {
	times    []float64
	src, dst []contact.NodeID
	ids      []string // deterministic 32-hex-character IDs
	payloads []byte   // message i's payload is payloads[i*size:][:size]
	size     int
	expiry   float64   // relative deadline; 0 = never expires
	pending  [][]int32 // per destination: messages not yet seen delivered
}

func newMessages(seed uint64, nodes, count, size int, a workload.Arrivals, horizon, expiry float64, root *rng.Stream) *messages {
	m := &messages{
		times:    arrivalTimes(a, count, horizon, root.Split("arrivals")),
		ids:      make([]string, count),
		payloads: randomBytes(count*size, root.Split("payloads")),
		size:     size,
		expiry:   expiry,
		pending:  make([][]int32, nodes),
	}
	m.src, m.dst = endpoints(nodes, count, root.Split("endpoints"))
	for i := range m.ids {
		m.ids[i] = fmt.Sprintf("%016x%016x", seed, uint64(i))
	}
	return m
}

func (m *messages) payload(i int) []byte { return m.payloads[i*m.size : (i+1)*m.size] }

// spec is message i as Node.Send takes it.
func (m *messages) spec(i, relays, copies int) node.SendSpec {
	s := node.SendSpec{Dst: m.dst[i], Payload: m.payload(i), Relays: relays, Copies: copies, ID: m.ids[i]}
	if m.expiry > 0 {
		s.Expiry = m.times[i] + m.expiry
	}
	return s
}

// sent records that message i is on its way to its destination.
func (m *messages) sent(i int) { m.pending[m.dst[i]] = append(m.pending[m.dst[i]], int32(i)) }

// poll looks through n's pending messages for deliveries at time t,
// comparing each delivered payload with the bytes that were sent, and
// returns how many it found. Messages past their expiry are dropped
// unpolled: custodians discard them at the start of every contact, so
// they can no longer arrive.
func (m *messages) poll(n *node.Node, t float64, res *result) int {
	found := 0
	keep := m.pending[n.ID()][:0]
	for _, i := range m.pending[n.ID()] {
		if m.expiry > 0 && t > m.times[i]+m.expiry {
			continue
		}
		got, ok := n.Delivered(m.ids[i])
		if !ok {
			keep = append(keep, i)
			continue
		}
		found++
		if !bytes.Equal(got, m.payload(int(i))) {
			res.fail("message %d delivered with wrong payload", i)
		}
	}
	m.pending[n.ID()] = keep
	return found
}

// quantile returns the q-quantile of sorted samples, interpolating
// linearly between order statistics.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i]))
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fitLine is the least-squares line through (x, y) with its R².
func fitLine(x, y []float64) (slope, intercept, r2 float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	vx, vy, cxy := sxx-sx*sx/n, syy-sy*sy/n, sxy-sx*sy/n
	if vx == 0 {
		return 0, sy / n, 0
	}
	slope = cxy / vx
	intercept = (sy - slope*sx) / n
	if vy == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, cxy * cxy / (vx * vy)
}

// scaled is max(1, round(base*scale)): a workload size at -scale.
func scaled(base int, scale float64) int {
	return int(math.Max(1, math.Round(float64(base)*scale)))
}
