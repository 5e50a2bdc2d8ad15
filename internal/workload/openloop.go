package workload

// Open-loop load generation: the arrival schedule is drawn up front
// from the offered-rate process alone, so injection pressure never
// adapts to how the system is coping — the defining property of an
// open-loop load test. (The closed-loop alternative, waiting for the
// previous batch before offering more, silently throttles itself
// exactly when the system is saturated and hides the overload.)
// Arrivals are plain Poisson or a 2-state Markov-modulated Poisson
// process (MMPP-2, "bursty") calibrated so the long-run mean equals
// the configured target rate.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Arrivals describes an open-loop arrival process.
type Arrivals struct {
	// Rate is the long-run mean arrival rate (messages per minute).
	Rate float64
	// Burst, when > 1, turns the process into an MMPP-2: the process
	// alternates calm and burst states, and the instantaneous rate in
	// burst is Burst x the calm rate. 0 or 1 means plain Poisson.
	Burst float64
	// BurstFraction is the long-run fraction of time spent in the
	// burst state (0 < f < 1 when Burst > 1).
	BurstFraction float64
	// BurstDwell is the mean duration of one burst episode (minutes).
	// Defaults to 5 when Burst > 1.
	BurstDwell float64
}

func (a Arrivals) validate() error {
	switch {
	case a.Rate <= 0:
		return fmt.Errorf("workload: arrival rate must be positive, got %v", a.Rate)
	case a.Burst < 0:
		return fmt.Errorf("workload: negative burst factor %v", a.Burst)
	case a.Burst > 1 && (a.BurstFraction <= 0 || a.BurstFraction >= 1):
		return fmt.Errorf("workload: burst fraction %v out of (0,1)", a.BurstFraction)
	case a.BurstDwell < 0:
		return fmt.Errorf("workload: negative burst dwell %v", a.BurstDwell)
	}
	return nil
}

func (a Arrivals) bursty() bool { return a.Burst > 1 }

// rates returns the calm and burst instantaneous rates, calibrated so
// the long-run mean is a.Rate: r_calm*(1-f) + Burst*r_calm*f = Rate.
func (a Arrivals) rates() (calm, burst float64) {
	if !a.bursty() {
		return a.Rate, a.Rate
	}
	calm = a.Rate / ((1 - a.BurstFraction) + a.Burst*a.BurstFraction)
	return calm, a.Burst * calm
}

// Schedule draws arrival times on [0, horizon) from the process. The
// schedule depends only on the stream and the horizon — never on the
// system under test.
func (a Arrivals) Schedule(horizon float64, s *rng.Stream) []float64 {
	calmRate, burstRate := a.rates()
	var times []float64
	if !a.bursty() {
		for t := s.Exp(calmRate); t < horizon; t += s.Exp(calmRate) {
			times = append(times, t)
		}
		return times
	}
	dwellBurst := a.BurstDwell
	if dwellBurst == 0 {
		dwellBurst = 5
	}
	// Mean calm dwell follows from the stationary burst fraction:
	// f = dwellBurst / (dwellBurst + dwellCalm).
	dwellCalm := dwellBurst * (1 - a.BurstFraction) / a.BurstFraction
	t, inBurst := 0.0, false
	switchAt := s.Exp(1 / dwellCalm)
	for t < horizon {
		rate := calmRate
		if inBurst {
			rate = burstRate
		}
		next := t + s.Exp(rate)
		if next >= switchAt {
			// The state flips before the tentative arrival; restart the
			// (memoryless) draw from the switch point in the new state.
			t = switchAt
			inBurst = !inBurst
			dwell := dwellCalm
			if inBurst {
				dwell = dwellBurst
			}
			switchAt = t + s.Exp(1/dwell)
			continue
		}
		t = next
		if t < horizon {
			times = append(times, t)
		}
	}
	return times
}

// OpenLoopSpec configures one open-loop run.
type OpenLoopSpec struct {
	Arrivals    Arrivals
	Horizon     float64 // injection window (sim minutes)
	Drain       float64 // extra window to let in-flight messages land
	PayloadSize int
	Relays      int
	Copies      int
	PadTo       int
	ExpiryAfter float64
	Seed        uint64
	// TrackBuffers samples total buffered onions after every contact;
	// PeakBuffered is zero without it.
	TrackBuffers bool
}

func (s OpenLoopSpec) validate() error {
	if err := s.Arrivals.validate(); err != nil {
		return err
	}
	switch {
	case s.Horizon <= 0:
		return fmt.Errorf("workload: horizon must be positive, got %v", s.Horizon)
	case s.Drain < 0:
		return fmt.Errorf("workload: negative drain %v", s.Drain)
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

// OpenLoopResult aggregates one open-loop run.
type OpenLoopResult struct {
	Records   []Record
	Injected  int
	Delivered int
	// DeliveryRatio is Delivered/Injected, 0 when nothing was injected.
	DeliveryRatio float64
	// OfferedRate is the achieved injection rate over the window
	// (messages per minute) — under open-loop load it tracks the
	// configured rate regardless of how the system copes.
	OfferedRate float64
	// Latencies holds one send-to-delivery delay (sim minutes) per
	// delivered message; empty when nothing was delivered.
	Latencies    []float64
	PeakBuffered int
	Totals       node.Stats
}

// LatencyQuantile returns the q-quantile of delivery latency and
// whether any message was delivered. A false second return means the
// quantile is undefined — never 0, which would read as "instant".
func (r *OpenLoopResult) LatencyQuantile(q float64) (float64, bool) {
	if len(r.Latencies) == 0 {
		return 0, false
	}
	return stats.Quantile(r.Latencies, q), true
}

// FormatLatency renders a latency quantile for human output, with the
// zero-delivered path spelled out instead of NaN or a division panic.
func (r *OpenLoopResult) FormatLatency(q float64) string {
	v, ok := r.LatencyQuantile(q)
	if !ok {
		return "n/a (nothing delivered)"
	}
	return fmt.Sprintf("%.2f min", v)
}

// SLO is a service-level objective for a sustained-load run. Zero
// values disable the corresponding check.
type SLO struct {
	MinDeliveryRatio float64 // delivered/injected must be >= this
	MaxP50           float64 // median delivery latency bound (minutes)
	MaxP99           float64 // p99 delivery latency bound (minutes)
}

// SLOVerdict is the outcome of checking a run against an SLO.
type SLOVerdict struct {
	Pass     bool
	Breaches []string // one human-readable line per violated objective
}

// CheckSLO evaluates the run against the objectives. A run that
// delivered nothing breaches any configured latency bound (unbounded
// latency), rather than vacuously passing.
func (r *OpenLoopResult) CheckSLO(slo SLO) SLOVerdict {
	v := SLOVerdict{Pass: true}
	fail := func(format string, args ...any) {
		v.Pass = false
		v.Breaches = append(v.Breaches, fmt.Sprintf(format, args...))
	}
	if slo.MinDeliveryRatio > 0 && r.DeliveryRatio < slo.MinDeliveryRatio {
		fail("delivery ratio %.4f < %.4f", r.DeliveryRatio, slo.MinDeliveryRatio)
	}
	checkQ := func(name string, q, bound float64) {
		if bound <= 0 {
			return
		}
		lat, ok := r.LatencyQuantile(q)
		if !ok {
			fail("%s latency unbounded: nothing delivered (bound %.2f min)", name, bound)
			return
		}
		if lat > bound {
			fail("%s latency %.2f min > %.2f min", name, lat, bound)
		}
	}
	checkQ("p50", 0.50, slo.MaxP50)
	checkQ("p99", 0.99, slo.MaxP99)
	return v
}

// RunOpenLoop drives the network with an open-loop arrival schedule
// over synthetic contacts on g. Arrivals stop at spec.Horizon; the
// contact process keeps running through spec.Drain so in-flight
// messages can land. The run never ends early because the system is
// keeping up — offered load is independent of outcomes.
func RunOpenLoop(nw *node.Network, g *contact.Graph, spec OpenLoopSpec) (*OpenLoopResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	root := rng.New(spec.Seed)
	times := spec.Arrivals.Schedule(spec.Horizon, root.Split("arrivals"))
	endpoints := root.Split("endpoints")
	n := g.N()
	d := &driver{
		nw:        nw,
		graphN:    n,
		pendingAt: make([][]int, n),
		rng:       root.Split("paths"),
		spec: Spec{
			PayloadSize:  spec.PayloadSize,
			Relays:       spec.Relays,
			Copies:       spec.Copies,
			PadTo:        spec.PadTo,
			ExpiryAfter:  spec.ExpiryAfter,
			TrackBuffers: spec.TrackBuffers,
		},
		openLoop: true,
	}
	for _, at := range times {
		src := contact.NodeID(endpoints.IntN(n))
		dst := contact.NodeID(endpoints.PickOther(n, int(src)))
		d.sends = append(d.sends, pendingSend{at: at, src: src, dst: dst})
	}
	sort.Slice(d.sends, func(i, j int) bool { return d.sends[i].at < d.sends[j].at })

	sim.RunSynthetic(g, spec.Horizon+spec.Drain, root.Split("contacts"), d)

	res := &OpenLoopResult{
		Records:      d.records,
		Injected:     len(d.records),
		PeakBuffered: d.peak,
		Totals:       nw.TotalStats(),
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
	res.OfferedRate = float64(res.Injected) / spec.Horizon
	return res, nil
}

// LatencyMillis converts a sim-minutes latency to integer
// milliseconds for histogram observation.
func LatencyMillis(minutes float64) int64 {
	return int64(math.Round(minutes * 60_000))
}

// ObserveDelivery records one delivery outcome into the active
// observability collector (no-op when collection is disabled).
func ObserveDelivery(latencyMinutes float64) {
	if c := obs.Active(); c != nil {
		c.Add(obs.LoadDelivered, 1)
		c.Observe(obs.HistLoadLatencyMillis, LatencyMillis(latencyMinutes))
	}
}
