// Package obs is the observability layer of the system: cheap event
// counters, log2-bucketed histograms, and wall-clock phase timers
// collected by a process-wide *Collector, plus the per-invocation run
// manifest (manifest.go) and the shared profiling flags (prof.go) the
// commands expose.
//
// Two invariants make instrumentation safe to leave wired through the
// hot layers (des, sim, node, experiment):
//
//   - Zero RNG: no obs call ever draws from an rng.Stream or perturbs
//     any seeded state, so instrumented and uninstrumented runs produce
//     byte-identical figures (enforced by TestObsByteIdentical).
//   - Zero overhead when disabled: the default state has no collector
//     installed; hot paths guard with `if c := obs.Active(); c != nil`,
//     a single atomic pointer load, and allocate nothing. Cold paths
//     may call obs.Active().StartPhase directly: a nil collector hands
//     back a shared no-op closer. The enabled path uses fixed-index
//     atomic counters — no maps, no strings — so aggregation across
//     worker goroutines is deterministic (integer sums and maxes are
//     order-independent).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one event counter. Counters are fixed at compile
// time and indexed into an array, keeping the enabled path free of map
// lookups and the manifest output free of map iteration order.
type Counter uint8

// The counter set, grouped by the layer that emits it.
const (
	// internal/des: discrete-event scheduler.
	DESEvents         Counter = iota // events dispatched by Scheduler.Run
	DESQueueHighWater                // max pending events observed (high-water)

	// internal/sim: contact engines.
	SimSyntheticContacts // contacts delivered by the synthetic engine
	SimReplayContacts    // contacts delivered by trace replay
	SimContactsDropped   // contacts dropped by the Lossy fault wrapper

	// internal/routing: abstract direct sampler (the engine behind the
	// paper's large-scale figures).
	RoutingContacts   // protocol-relevant contacts realized by the sampler
	RoutingHandoffs   // transmissions across all copies
	RoutingDeliveries // messages delivered within the deadline

	// internal/node: message-level runtime.
	NodeContacts         // Meet calls executed
	NodeHandoffs         // onions that changed custody
	NodeDeliveries       // payloads delivered to their destination
	NodeRejected         // hand-offs rejected (tamper, dup, unknown layer)
	NodeTruncated        // frames torn mid-transfer
	NodeRetransmissions  // in-contact retransmissions after a tear
	NodeTamperDrops      // frames dropped after corrupting byte flips
	NodeDedupHits        // duplicate redeliveries suppressed by the seen log
	NodeWireBytes        // bytes pushed across the wire (retries included)
	NodeCustodyHighWater // max custody-buffer occupancy observed (high-water)

	// internal/experiment: Monte Carlo harness.
	ExpTrialBatches       // MapTrials invocations
	ExpTrials             // trials executed across all batches
	ExpBatchWallNanos     // wall-clock summed over batches
	ExpBatchCapacityNanos // wall-clock x workers summed over batches
	ExpTrialBusyNanos     // per-trial busy time summed over all trials

	// internal/cluster: live TCP runtime.
	ClusterDials         // outbound connections dialed
	ClusterAccepts       // inbound connections accepted
	ClusterContacts      // socket contacts executed
	ClusterFramesOut     // frames written to sockets
	ClusterFramesIn      // frames read from sockets
	ClusterBytesOut      // frame payload bytes written
	ClusterBytesIn       // frame payload bytes read
	ClusterFrameErrors   // truncated/tampered reads
	ClusterRegistrations // directory registrations accepted

	// internal/node: backpressure-aware custody (PR 8). Appended after
	// the cluster block so earlier manifest consumers keep their
	// positional prefix.
	NodeRefusals          // custody offers refused because the receiver's buffer was full
	NodeBackpressureDrops // onions dropped after exhausting their re-offer budget

	// cmd/dtnload: sustained-load service mode.
	LoadInjected    // messages injected by the open-loop generator
	LoadDelivered   // injected messages observed delivered
	LoadSLOBreaches // epochs that missed a configured SLO

	// internal/dispatch: the content-addressed trial cache. Appended
	// after the load block so earlier manifest consumers keep their
	// positional prefix.
	CacheHits   // trial results served from the content-addressed cache
	CacheMisses // trials executed because no cached result held them

	// internal/chaos + cluster self-healing (PR 10). Appended after the
	// cache block so earlier manifest consumers keep their positional
	// prefix.
	ChaosInjected  // chaos faults applied: connection profiles, partition and blackout dial blocks
	ChaosBlackouts // scheduled directory blackout windows executed by a harness
	RetryAttempts  // backoff retries of dials, registrations, and contact preambles
	BreakerOpens   // per-peer circuit breakers tripped open

	numCounters
)

// counterNames are the manifest keys, emitted in declaration order.
var counterNames = [numCounters]string{
	DESEvents:             "des.events_dispatched",
	DESQueueHighWater:     "des.queue_high_water",
	SimSyntheticContacts:  "sim.contacts_synthetic",
	SimReplayContacts:     "sim.contacts_replayed",
	SimContactsDropped:    "sim.contacts_dropped",
	RoutingContacts:       "routing.contacts",
	RoutingHandoffs:       "routing.handoffs",
	RoutingDeliveries:     "routing.deliveries",
	NodeContacts:          "node.contacts",
	NodeHandoffs:          "node.handoffs",
	NodeDeliveries:        "node.deliveries",
	NodeRejected:          "node.rejected",
	NodeTruncated:         "node.truncated",
	NodeRetransmissions:   "node.retransmissions",
	NodeTamperDrops:       "node.tamper_drops",
	NodeDedupHits:         "node.dedup_hits",
	NodeWireBytes:         "node.wire_bytes",
	NodeCustodyHighWater:  "node.custody_high_water",
	ExpTrialBatches:       "experiment.trial_batches",
	ExpTrials:             "experiment.trials",
	ExpBatchWallNanos:     "experiment.batch_wall_nanos",
	ExpBatchCapacityNanos: "experiment.batch_capacity_nanos",
	ExpTrialBusyNanos:     "experiment.trial_busy_nanos",
	ClusterDials:          "cluster.dials",
	ClusterAccepts:        "cluster.accepts",
	ClusterContacts:       "cluster.contacts",
	ClusterFramesOut:      "cluster.frames_out",
	ClusterFramesIn:       "cluster.frames_in",
	ClusterBytesOut:       "cluster.bytes_out",
	ClusterBytesIn:        "cluster.bytes_in",
	ClusterFrameErrors:    "cluster.frame_errors",
	ClusterRegistrations:  "cluster.registrations",
	NodeRefusals:          "node.refusals",
	NodeBackpressureDrops: "node.backpressure_drops",
	LoadInjected:          "load.injected",
	LoadDelivered:         "load.delivered",
	LoadSLOBreaches:       "load.slo_breaches",
	ChaosInjected:         "chaos.injected",
	ChaosBlackouts:        "chaos.blackouts",
	RetryAttempts:         "retry.attempts",
	BreakerOpens:          "breaker.opens",
	CacheHits:             "cache.hits",
	CacheMisses:           "cache.misses",
}

// String returns the manifest key of the counter.
func (c Counter) String() string { return counterNames[c] }

// Histogram identifies one log2-bucketed value distribution.
type Histogram uint8

const (
	HistContactTransfers  Histogram = iota // custody transfers per contact
	HistHandoffFrameBytes                  // marshaled frame size per hand-off attempt
	HistTrialBatchTrials                   // trials per MapTrials batch
	HistClusterConnFrames                  // frames exchanged per socket connection
	HistLoadLatencyMillis                  // delivery latency per delivered load message (sim ms)

	numHistograms
)

var histogramNames = [numHistograms]string{
	HistContactTransfers:  "node.contact_transfers",
	HistHandoffFrameBytes: "node.handoff_frame_bytes",
	HistTrialBatchTrials:  "experiment.trial_batch_trials",
	HistClusterConnFrames: "cluster.conn_frames",
	HistLoadLatencyMillis: "load.delivery_latency_ms",
}

// String returns the manifest key of the histogram.
func (h Histogram) String() string { return histogramNames[h] }

// histBuckets is enough for values up to 2^61-1; everything larger
// lands in the final overflow bucket.
const histBuckets = 63

// bucketIndex maps v to its log2 bucket. The semantics are pinned by
// TestBucketSemantics (and frozen into Prometheus scrape output by the
// promhttp exporter):
//
//   - bucket 0 holds v <= 0 (negative observations are clamped, never
//     silently dropped: they count in bucket 0 and contribute 0 to the
//     histogram sum so sum and buckets stay mutually consistent);
//   - bucket i (1 <= i <= 61) holds v in [2^(i-1), 2^i), i.e. its
//     inclusive upper bound is 2^i - 1;
//   - bucket 62 is the overflow bucket holding every v >= 2^61. Its
//     upper bound is MaxInt64 (rendered +Inf by the exporter) — the
//     earlier code reported 2^62-1 while also binning values up to
//     2^63-1 there, so the top bucket's bound lied about its contents.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := 0
	for u := uint64(v); u != 0; u >>= 1 {
		idx++
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpperBound returns the inclusive upper bound of bucket i; the
// final bucket is the overflow bucket with no finite bound.
func bucketUpperBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Collector receives instrumentation events: fixed arrays of atomic
// counters and histogram buckets plus a mutex-guarded phase table. A
// nil *Collector is the disabled state, on which only StartPhase may
// be called. All methods are safe for concurrent use, and because
// every aggregation is an integer sum or max, totals are identical for
// every worker count and completion order.
type Collector struct {
	counters [numCounters]atomic.Int64
	buckets  [numHistograms][histBuckets]atomic.Int64
	histSum  [numHistograms]atomic.Int64

	mu     sync.Mutex
	phases map[string]*phaseAgg
	order  []string // phase names in first-start order
}

type phaseAgg struct {
	count int64
	total time.Duration
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{phases: make(map[string]*phaseAgg)}
}

// Add increments a sum-aggregated counter.
func (c *Collector) Add(ctr Counter, delta int64) { c.counters[ctr].Add(delta) }

// RecordMax raises a high-water counter to v if v is larger.
func (c *Collector) RecordMax(ctr Counter, v int64) {
	for {
		cur := c.counters[ctr].Load()
		if v <= cur || c.counters[ctr].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records one value in a histogram. Negative values are
// clamped to zero (bucket 0, zero sum contribution) so the histogram sum can never disagree
// with the bucket counts.
func (c *Collector) Observe(h Histogram, v int64) {
	if v < 0 {
		v = 0
	}
	c.buckets[h][bucketIndex(v)].Add(1)
	c.histSum[h].Add(v)
}

// nopEnd is the closer a disabled (nil) collector hands out; it is
// shared, so a disabled StartPhase allocates nothing.
var nopEnd = func() {}

// StartPhase opens a named wall-clock phase; the returned func closes
// it. Phases with the same name accumulate. On a nil collector (the
// disabled state) it records nothing and returns a no-op closer.
func (c *Collector) StartPhase(name string) func() {
	if c == nil {
		return nopEnd
	}
	start := time.Now()
	return func() {
		elapsed := time.Since(start)
		c.mu.Lock()
		defer c.mu.Unlock()
		p := c.phases[name]
		if p == nil {
			p = &phaseAgg{}
			c.phases[name] = p
			c.order = append(c.order, name)
		}
		p.count++
		p.total += elapsed
	}
}

// Get returns the current value of a counter.
func (c *Collector) Get(ctr Counter) int64 { return c.counters[ctr].Load() }

// CounterTotal is one counter in a snapshot.
type CounterTotal struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Counters snapshots every counter in declaration order (a fixed,
// deterministic order — never map iteration).
func (c *Collector) Counters() []CounterTotal {
	out := make([]CounterTotal, numCounters)
	for i := range out {
		out[i] = CounterTotal{Name: counterNames[i], Value: c.counters[i].Load()}
	}
	return out
}

// HistogramBucket is one populated bucket: Count values <= Le (and
// greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram in a snapshot.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Histograms snapshots every histogram in declaration order, eliding
// empty buckets.
func (c *Collector) Histograms() []HistogramSnapshot {
	out := make([]HistogramSnapshot, numHistograms)
	for h := range out {
		snap := HistogramSnapshot{Name: histogramNames[h], Sum: c.histSum[h].Load()}
		for i := 0; i < histBuckets; i++ {
			n := c.buckets[h][i].Load()
			if n == 0 {
				continue
			}
			snap.Count += n
			snap.Buckets = append(snap.Buckets, HistogramBucket{Le: bucketUpperBound(i), Count: n})
		}
		out[h] = snap
	}
	return out
}

// PhaseTiming is one named phase in a snapshot.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Phases snapshots the phase table in first-start order.
func (c *Collector) Phases() []PhaseTiming {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PhaseTiming, 0, len(c.order))
	for _, name := range c.order {
		p := c.phases[name]
		out = append(out, PhaseTiming{Name: name, Count: p.count, Seconds: p.total.Seconds()})
	}
	return out
}

// active is the process-wide collector; nil means disabled (the
// default). Commands install one collector for the whole invocation;
// the manifest they emit aggregates everything the run did.
var active atomic.Pointer[Collector]

// Install makes c the process-wide collector. Passing nil disables
// collection (the default state).
func Install(c *Collector) { active.Store(c) }

// Active returns the installed collector, or nil when collection is
// disabled. Hot paths use this as their guard:
//
//	if c := obs.Active(); c != nil {
//	    c.Add(obs.NodeContacts, 1)
//	}
func Active() *Collector { return active.Load() }
