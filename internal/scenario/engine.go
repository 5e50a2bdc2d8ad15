package scenario

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Engine evaluates Scenario specs. One engine carries one Options
// value plus memo caches for the analytical models and for
// deterministic network construction; figures generated by the same
// engine share those caches. Caches are keyed by the full numerical
// input of pure functions and never involve randomness, so an engine
// with a cold cache or a warm cache produces the figures a direct
// model call would, byte for byte (see DESIGN.md's determinism
// argument).
type Engine struct {
	opt Options

	// sup and cache, attached via Supervise, add panic quarantine,
	// watchdog timeouts and drain-on-signal (sup) and an open entry of
	// the content-addressed result cache (cache) to every Monte Carlo
	// batch. Both nil by default: the engine then runs on the plain
	// pool.
	sup   *runner.Supervisor
	cache *resultcache.Store

	mu   sync.Mutex
	nets map[core.Config]*core.Network
	// delivery memoizes hypoexponential delivery evaluators keyed by
	// the bit patterns of (copies, rates...), each with a per-deadline
	// value memo.
	delivery map[string]*deliveryEntry
	// traceable memoizes model.TraceableRate by (eta, frac bits).
	traceable map[traceableKey]float64
}

type deliveryEntry struct {
	ev   *model.DeliveryEvaluator
	err  error
	vals map[uint64]float64
}

type traceableKey struct {
	eta  int
	frac uint64
}

// NewEngine returns an engine for one effort level.
func NewEngine(opt Options) *Engine {
	return &Engine{
		opt:       opt,
		nets:      make(map[core.Config]*core.Network),
		delivery:  make(map[string]*deliveryEntry),
		traceable: make(map[traceableKey]float64),
	}
}

// Options returns the engine's effort options.
func (e *Engine) Options() Options { return e.opt }

// network returns the deterministic network for cfg, constructed at
// most once per engine. core.NewNetwork derives everything from
// cfg.Seed, so reuse is observationally identical to rebuilding.
func (e *Engine) network(cfg core.Config) (*core.Network, error) {
	e.mu.Lock()
	if nw, ok := e.nets[cfg]; ok {
		e.mu.Unlock()
		return nw, nil
	}
	e.mu.Unlock()
	nw, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.nets[cfg] = nw
	e.mu.Unlock()
	return nw, nil
}

func deliveryKey(rates []float64, copies int) string {
	b := make([]byte, 8*(len(rates)+1))
	binary.LittleEndian.PutUint64(b, uint64(copies))
	for i, r := range rates {
		binary.LittleEndian.PutUint64(b[8*(i+1):], math.Float64bits(r))
	}
	return string(b)
}

// DeliveryRate evaluates Eq. 7 (the multi-copy hypoexponential
// delivery rate) through the engine's memo cache: one
// model.DeliveryEvaluator per distinct (rates, copies) key, one stored
// value per distinct deadline. Bit-identical to calling
// model.DeliveryRateMultiCopy directly, because the cache stores the
// outputs of exactly that computation.
func (e *Engine) DeliveryRate(rates []float64, copies int, deadline float64) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := deliveryKey(rates, copies)
	ent, ok := e.delivery[key]
	if !ok {
		ev, err := model.NewDeliveryEvaluator(rates, copies)
		ent = &deliveryEntry{ev: ev, err: err, vals: make(map[uint64]float64)}
		e.delivery[key] = ent
	}
	if ent.err != nil {
		return 0, ent.err
	}
	tb := math.Float64bits(deadline)
	if v, ok := ent.vals[tb]; ok {
		return v, nil
	}
	v := ent.ev.At(deadline)
	ent.vals[tb] = v
	return v, nil
}

// TraceableRate evaluates Eq. 12 through the engine's memo cache,
// bit-identical to model.TraceableRate.
func (e *Engine) TraceableRate(eta int, frac float64) float64 {
	key := traceableKey{eta: eta, frac: math.Float64bits(frac)}
	e.mu.Lock()
	if v, ok := e.traceable[key]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	v := model.TraceableRate(eta, frac)
	e.mu.Lock()
	e.traceable[key] = v
	e.mu.Unlock()
	return v
}

// seriesConfig materializes the effective config of one series value:
// Base, mutated by the series axis (when it names a config param),
// seeded from Options, with the fault-injection override applied for
// contact-driven kinds.
func (e *Engine) seriesConfig(s *Scenario, i int, contactDriven bool) (core.Config, error) {
	cfg := s.Base
	if s.Series.Param != "" && s.Series.Param != ParamFrac {
		if err := s.Series.apply(&cfg, i); err != nil {
			return cfg, err
		}
	}
	cfg.Seed = e.opt.Seed
	if contactDriven && e.opt.FaultRate != 0 {
		cfg.ContactFailure = e.opt.FaultRate
	}
	return cfg, nil
}

// Run evaluates the spec into a Figure. Static spec notes are appended
// after any dynamically generated notes, matching the historical
// generators.
func (e *Engine) Run(s *Scenario) (*Figure, error) {
	if err := e.opt.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var (
		series []stats.Series
		notes  []string
		err    error
	)
	switch s.Measure.Kind {
	case KindDeliveryCurve:
		series, notes, err = e.deliveryCurve(s)
	case KindSecurityPoint, KindAnonymity:
		if s.Measure.Trace != "" {
			series, notes, err = e.traceSecurity(s)
		} else {
			series, notes, err = e.securitySweep(s)
		}
	case KindCost:
		series, notes, err = e.cost(s)
	case KindTraceReplay:
		series, notes, err = e.traceReplay(s)
	case KindTable:
		series, notes, err = e.table(s)
	case KindCustom:
		series, notes, err = customs[s.Measure.Custom](e, s)
	default:
		return nil, fmt.Errorf("scenario: %s: unknown measurement kind %q", s.ID, s.Measure.Kind)
	}
	if err != nil {
		return nil, err
	}
	notes = append(notes, s.Notes...)
	return &Figure{
		ID: s.ID, Title: s.Title,
		XLabel: s.XLabel, YLabel: s.YLabel, LogX: s.LogX,
		Series: series, Notes: notes,
	}, nil
}

// CustomFunc is a bespoke generator dispatched by KindCustom: it
// returns the figure's series and dynamic notes; the spec contributes
// the ID, titles, labels and static notes.
type CustomFunc func(e *Engine, s *Scenario) ([]stats.Series, []string, error)

var customs = map[string]CustomFunc{}

// RegisterCustom installs a custom generator under a name referenced
// by Measure.Custom. Registration happens at package init; duplicate
// names panic.
func RegisterCustom(name string, fn CustomFunc) {
	if _, ok := customs[name]; ok {
		panic("scenario: duplicate custom generator " + name)
	}
	customs[name] = fn
}
