// Package core is the top-level API of the reproduction: it wires the
// substrates (contact graphs, onion groups, routing protocols,
// adversary, analytical models) into the experiment primitives the
// paper's evaluation is built from.
//
// A Network realizes the paper's random-contact-graph environment
// (Table II); a TraceNetwork realizes the trace-replay environment of
// Sec. V-D/E. Both expose Trial objects that bundle a
// source/destination pair with its onion-group path, and can evaluate
// each trial by simulation (Route) and by the analytical models
// (ModelDelivery, plus the security helpers).
package core

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/contact"
	"repro/internal/groups"
	"repro/internal/model"
	"repro/internal/onion"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config mirrors the paper's simulation parameters (Table II).
type Config struct {
	Nodes     int     // n: number of nodes (default 100)
	GroupSize int     // g: onion group size (default 5)
	Relays    int     // K: onion groups per path (default 3)
	Copies    int     // L: message copies (default 1)
	Spray     bool    // source spray-and-wait augmentation (Sec. V)
	MinICT    float64 // minimum mean inter-contact time, minutes (default 1)
	MaxICT    float64 // maximum mean inter-contact time, minutes (default 360)
	Seed      uint64  // root seed for all randomness
	// ContactFailure is the fault layer's per-contact failure
	// probability in [0, 1): each contact independently fails before
	// any hand-off can happen. By Poisson thinning this is exactly a
	// rate scaling of every pair process to λ(1−p), which is how both
	// the direct sampler (SampleOnionLossy) and the lossy analytical
	// model (ModelDeliveryLossy) account for it. 0 (the default)
	// reproduces the unfaulted environment byte-for-byte.
	ContactFailure float64
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		Nodes:     100,
		GroupSize: 5,
		Relays:    3,
		Copies:    1,
		Spray:     true,
		MinICT:    1,
		MaxICT:    360,
		Seed:      1,
	}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 3:
		return fmt.Errorf("core: need at least 3 nodes, got %d", c.Nodes)
	case c.GroupSize < 1 || c.GroupSize > c.Nodes:
		return fmt.Errorf("core: group size %d out of [1, %d]", c.GroupSize, c.Nodes)
	case c.Relays < 1:
		return fmt.Errorf("core: need at least one onion group, got %d", c.Relays)
	case c.Copies < 1:
		return fmt.Errorf("core: need at least one copy, got %d", c.Copies)
	case c.MinICT <= 0 || c.MaxICT <= c.MinICT:
		return fmt.Errorf("core: invalid ICT range [%v, %v)", c.MinICT, c.MaxICT)
	case c.ContactFailure < 0 || c.ContactFailure >= 1:
		return fmt.Errorf("core: contact failure %v out of [0,1)", c.ContactFailure)
	}
	return nil
}

// Network is a realized random-contact-graph environment: one contact
// graph and one onion-group partition, from which trials are drawn.
type Network struct {
	cfg    Config
	graph  *contact.Graph
	groups *groups.Directory
	root   *rng.Stream
}

// NewNetwork realizes the environment for the given configuration.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	g := contact.NewRandom(cfg.Nodes, cfg.MinICT, cfg.MaxICT, root.Split("graph"))
	return newNetwork(cfg, g, root)
}

// NewNetworkWithGraph builds the environment over a caller-provided
// contact graph (e.g. one loaded with contact.ReadGraph), so saved
// scenarios can be replayed exactly. cfg.Nodes must match the graph;
// cfg's ICT bounds are ignored.
func NewNetworkWithGraph(cfg Config, g *contact.Graph) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if g.N() != cfg.Nodes {
		return nil, fmt.Errorf("core: graph has %d nodes, config says %d", g.N(), cfg.Nodes)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: graph: %w", err)
	}
	return newNetwork(cfg, g, rng.New(cfg.Seed))
}

func newNetwork(cfg Config, g *contact.Graph, root *rng.Stream) (*Network, error) {
	dir, err := groups.NewPartition(cfg.Nodes, cfg.GroupSize, root.Split("groups"))
	if err != nil {
		return nil, fmt.Errorf("core: partition: %w", err)
	}
	return &Network{cfg: cfg, graph: g, groups: dir, root: root}, nil
}

// Graph returns the realized contact graph.
func (nw *Network) Graph() *contact.Graph { return nw.graph }

// Trial bundles one message's endpoints with its onion path and the
// per-hop aggregate rates of Eq. 4.
type Trial struct {
	Src, Dst contact.NodeID
	GroupIDs []onion.GroupID
	Sets     [][]contact.NodeID
	Rates    []float64
}

// Eta returns the hop count K+1.
func (t *Trial) Eta() int { return len(t.Sets) + 1 }

// NewTrial draws the i-th trial: uniform distinct endpoints and K
// onion groups excluding the endpoint groups. Trials are deterministic
// in (Seed, i).
func (nw *Network) NewTrial(i int) (*Trial, error) {
	s := nw.root.SplitN("trial", i)
	src := contact.NodeID(s.IntN(nw.cfg.Nodes))
	dst := contact.NodeID(s.PickOther(nw.cfg.Nodes, int(src)))
	ids, err := nw.groups.SelectPath(src, dst, nw.cfg.Relays, s)
	if err != nil {
		return nil, fmt.Errorf("core: trial %d: %w", i, err)
	}
	sets := nw.groups.PathMembers(ids)
	// Endpoints never relay their own message: remove them from the
	// member sets if the partition placed them there (it cannot, since
	// SelectPath excludes endpoint groups, but ad-hoc callers may
	// construct trials directly).
	rates, err := contact.GroupPathRates(nw.graph, src, dst, sets)
	if err != nil {
		return nil, fmt.Errorf("core: trial %d: %w", i, err)
	}
	return &Trial{Src: src, Dst: dst, GroupIDs: ids, Sets: sets, Rates: rates}, nil
}

// Route simulates the abstract protocol for one trial. The deadline T
// is in minutes; runToCompletion keeps all L copies moving after the
// first delivery so the full transmission cost is observed.
func (nw *Network) Route(t *Trial, deadline float64, runToCompletion bool, i int) (routing.Result, error) {
	p := routing.Params{
		Src:             t.Src,
		Dst:             t.Dst,
		Sets:            t.Sets,
		Copies:          nw.cfg.Copies,
		Spray:           nw.cfg.Spray,
		RunToCompletion: runToCompletion,
	}
	return routing.SampleOnionLossy(nw.graph, p, deadline, nw.cfg.ContactFailure, nw.root.SplitN("route", i))
}

// ModelDelivery evaluates the trial's analytical delivery rate
// (Eq. 6 for L=1, Eq. 7 otherwise) under IDEAL contacts — the paper's
// published curves, regardless of cfg.ContactFailure. Compare with
// ModelDeliveryLossy to see how far faults pull simulation away from
// the ideal model.
func (nw *Network) ModelDelivery(t *Trial, deadline float64) (float64, error) {
	return model.DeliveryRateMultiCopy(t.Rates, nw.cfg.Copies, deadline)
}

// ModelDeliveryLossy evaluates the analytical delivery rate with the
// configured per-contact failure folded in: every per-hop aggregate
// rate of Eq. 4 is thinned to λ(1−p), which is exact for independent
// per-contact failures over Poisson pair processes. At
// ContactFailure = 0 it equals ModelDelivery.
func (nw *Network) ModelDeliveryLossy(t *Trial, deadline float64) (float64, error) {
	if nw.cfg.ContactFailure == 0 {
		return model.DeliveryRateMultiCopy(t.Rates, nw.cfg.Copies, deadline)
	}
	return model.DeliveryRateMultiCopy(nw.ThinnedRates(t), nw.cfg.Copies, deadline)
}

// ThinnedRates returns the trial's per-hop aggregate rates with the
// configured contact-failure rate folded in (λ(1−p), the exact
// thinning ModelDeliveryLossy evaluates). At ContactFailure = 0 it
// returns the trial's rate slice itself; callers must treat the
// result as read-only.
func (nw *Network) ThinnedRates(t *Trial) []float64 {
	if nw.cfg.ContactFailure == 0 {
		return t.Rates
	}
	keep := 1 - nw.cfg.ContactFailure
	thinned := make([]float64, len(t.Rates))
	for i, r := range t.Rates {
		thinned[i] = keep * r
	}
	return thinned
}

// Rand derives a labeled deterministic random stream from the
// network's root seed, for experiment-level randomness (adversary
// draws, auxiliary sampling) that must not perturb trial generation.
func (nw *Network) Rand(label string, i int) *rng.Stream {
	return nw.root.SplitN(label, i)
}

// RouteFrom routes one message from a fixed source to a fresh random
// destination through freshly selected onion groups. Longitudinal
// experiments (e.g. the predecessor attack) use it to observe a stream
// of messages from the same sender.
func (nw *Network) RouteFrom(src contact.NodeID, i int, deadline float64) (routing.Result, error) {
	if src < 0 || int(src) >= nw.cfg.Nodes {
		return routing.Result{}, fmt.Errorf("core: source %d out of range", src)
	}
	s := nw.root.SplitN("routefrom", i)
	dst := contact.NodeID(s.PickOther(nw.cfg.Nodes, int(src)))
	ids, err := nw.groups.SelectPath(src, dst, nw.cfg.Relays, s)
	if err != nil {
		return routing.Result{}, fmt.Errorf("core: route from %d: %w", src, err)
	}
	p := routing.Params{
		Src:    src,
		Dst:    dst,
		Sets:   nw.groups.PathMembers(ids),
		Copies: nw.cfg.Copies,
		Spray:  nw.cfg.Spray,
	}
	return routing.SampleOnionLossy(nw.graph, p, deadline, nw.cfg.ContactFailure, s.Split("route"))
}

// SecurityOutcome aggregates the two security metrics of one trial
// under one adversary realization.
type SecurityOutcome struct {
	TraceableRate        float64
	PathAnonymity        float64
	CompromisedPositions int
}

// SecurityFromResult measures the realized security metrics of a
// routed message: the traceable rate of the delivered copy (Eq. 1) and
// the observed path anonymity over all copies (Eq. 19 with the
// realized compromised-position count).
func (nw *Network) SecurityFromResult(res routing.Result, frac float64, i int) (SecurityOutcome, bool, error) {
	adv, err := adversary.RandomFraction(nw.cfg.Nodes, frac, nw.root.SplitN("adv", i))
	if err != nil {
		return SecurityOutcome{}, false, err
	}
	delivered, ok := res.DeliveredCopy()
	if !ok {
		return SecurityOutcome{}, false, nil
	}
	out := SecurityOutcome{
		TraceableRate:        adv.TraceableRate(delivered),
		CompromisedPositions: adv.CompromisedPositions(res.Copies, nw.cfg.Relays),
	}
	out.PathAnonymity = adv.ObservedPathAnonymity(nw.cfg.GroupSize, nw.cfg.Relays, res.Copies)
	return out, true, nil
}

// FastSecurityTrial measures the security metrics on a directly
// sampled path realization, valid because both metrics are independent
// of the contact-graph realization (Sec. V-A). This is how the paper's
// security figures are generated at scale.
func (nw *Network) FastSecurityTrial(frac float64, i int) (SecurityOutcome, error) {
	return nw.FastSecurity(frac, i, adversary.Traceable|adversary.Positions)
}

// FastSecurity is FastSecurityTrial drawing only the samplers want
// names; the fields of a metric not asked for read zero. Each metric's
// value is the one FastSecurityTrial gives for the same trial.
func (nw *Network) FastSecurity(frac float64, i int, want adversary.Metric) (SecurityOutcome, error) {
	p := adversary.Path{
		Nodes: nw.cfg.Nodes, Relays: nw.cfg.Relays, Copies: nw.cfg.Copies,
		GroupSize: nw.cfg.GroupSize, Spray: nw.cfg.Spray,
	}
	o, err := p.FastTrial(nw.root, "fastsec", i, frac, want)
	if err != nil {
		return SecurityOutcome{}, err
	}
	out := SecurityOutcome{TraceableRate: o.TraceableRate}
	if want&adversary.Positions != 0 {
		out.CompromisedPositions = o.CompromisedPositions
		out.PathAnonymity = model.PathAnonymity(nw.cfg.Nodes, nw.cfg.Relays+1, nw.cfg.GroupSize, float64(o.CompromisedPositions))
	}
	return out, nil
}

// ModelTraceableRate returns the analytical traceable rate (Eq. 12)
// at the given compromised fraction.
func (nw *Network) ModelTraceableRate(frac float64) float64 {
	return model.TraceableRate(nw.cfg.Relays+1, frac)
}

// ModelPathAnonymity returns the analytical path anonymity (Eqs. 15,
// 19, 20) at the given compromised fraction.
func (nw *Network) ModelPathAnonymity(frac float64) float64 {
	return model.PathAnonymityMultiCopy(nw.cfg.Nodes, nw.cfg.Relays+1, nw.cfg.GroupSize, frac, nw.cfg.Copies)
}

// TraceNetwork is the trace-replay environment of Sec. V-D/E: a
// recorded contact trace with rates fitted for the analytical models.
type TraceNetwork struct {
	tr    *trace.Trace
	rates *contact.Graph
	root  *rng.Stream
}

// NewTraceNetwork wraps a contact trace, fitting per-pair exponential
// rates ("training the traces", Sec. V-A).
func NewTraceNetwork(tr *trace.Trace, seed uint64) (*TraceNetwork, error) {
	rates, err := tr.EstimateRates()
	if err != nil {
		return nil, fmt.Errorf("core: estimate rates: %w", err)
	}
	return &TraceNetwork{tr: tr, rates: rates, root: rng.New(seed)}, nil
}

// TraceTrial is one trace-replay message: endpoints, ad-hoc onion
// groups, fitted rates, and the transmission start time (a contact of
// the source during business hours, per Sec. V-A).
type TraceTrial struct {
	Src, Dst contact.NodeID
	Sets     [][]contact.NodeID
	Rates    []float64 // may be nil if the fitted path has a zero-rate hop
	Start    float64   // seconds
}

// NewTrial draws the i-th trace trial with K ad-hoc groups of size g.
func (tn *TraceNetwork) NewTrial(i, g, k int) (*TraceTrial, error) {
	s := tn.root.SplitN("trial", i)
	n := tn.tr.NodeCount
	src := contact.NodeID(s.IntN(n))
	dst := contact.NodeID(s.PickOther(n, int(src)))
	sets, err := groups.AdHoc(n, g, k, []contact.NodeID{src, dst}, s.Split("groups"))
	if err != nil {
		return nil, fmt.Errorf("core: trace trial %d: %w", i, err)
	}
	// The message is initiated at one of the source's contacts,
	// uniformly chosen: "a source node initiates a message
	// transmission at any time after it has a contact with any node".
	srcContacts := tn.tr.ContactsOf(src)
	if len(srcContacts) == 0 {
		return nil, fmt.Errorf("core: trace trial %d: source %d never meets anyone", i, src)
	}
	start := tn.tr.Contacts[srcContacts[s.IntN(len(srcContacts))]].Start
	rates, err := contact.GroupPathRates(tn.rates, src, dst, sets)
	if err != nil {
		rates = nil // the model cannot be evaluated for this trial
	}
	return &TraceTrial{Src: src, Dst: dst, Sets: sets, Rates: rates, Start: start}, nil
}

// Route replays the trace for one trial. deadline is in seconds.
func (tn *TraceNetwork) Route(t *TraceTrial, deadline float64, copies int, spray, runToCompletion bool) (routing.Result, error) {
	return tn.RouteLossy(t, deadline, copies, spray, runToCompletion, 0, 0)
}

// RouteLossy replays the trace for one trial with the fault layer's
// per-contact failure probability: each recorded contact independently
// fails with probability failure before the protocol sees it
// (sim.Lossy). Traces have no Poisson structure to thin, so the DES
// wrapper is the only exact treatment here. The failure schedule is
// deterministic in (seed, i); failure = 0 consumes no stream state and
// reproduces Route byte-for-byte.
func (tn *TraceNetwork) RouteLossy(t *TraceTrial, deadline float64, copies int, spray, runToCompletion bool, failure float64, i int) (routing.Result, error) {
	if failure < 0 || failure >= 1 {
		return routing.Result{}, fmt.Errorf("core: contact failure %v out of [0,1)", failure)
	}
	p := routing.Params{
		Src:             t.Src,
		Dst:             t.Dst,
		Sets:            t.Sets,
		Copies:          copies,
		Spray:           spray,
		StartTime:       t.Start,
		RunToCompletion: runToCompletion,
	}
	o, err := routing.NewOnion(p)
	if err != nil {
		return routing.Result{}, err
	}
	sim.Replay(tn.tr, t.Start, deadline, sim.Lossy(o, failure, tn.root.SplitN("loss", i)))
	return o.Result(), nil
}

// ModelDelivery evaluates the analytical delivery rate for a trace
// trial, or ok=false when the fitted rates contain a zero-rate hop.
func (tn *TraceNetwork) ModelDelivery(t *TraceTrial, deadline float64, copies int) (float64, bool, error) {
	if t.Rates == nil {
		return 0, false, nil
	}
	v, err := model.DeliveryRateMultiCopy(t.Rates, copies, deadline)
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}
