package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/runner"
)

// Supervise attaches an optional supervisor (panic quarantine,
// watchdog, drain) and an optional dispatcher over a content-addressed
// cache entry (internal/dispatch) to the engine. With a dispatcher,
// every Monte Carlo batch is served from the cache where possible, the
// rest is leased in chunks, computed and saved, and other processes
// sharing the cache directory pick up each other's work. Call before
// Run; an engine with neither attached runs on the plain pool.
func (e *Engine) Supervise(sup *runner.Supervisor, d *dispatch.Dispatcher) {
	e.sup = sup
	e.fleet = d
}

// Trials routes one of the engine's Monte Carlo batches through
// dispatch.Run. batch must be a stable label — derived from the
// scenario ID and axis indices, never from map order or timing —
// because it keys cached results across process lifetimes.
func Trials[T any](e *Engine, batch string, trials int, fn func(i int) (T, error)) ([]T, error) {
	return dispatch.Run(e.fleet, e.sup, batch, e.opt.Workers, trials, fn)
}

// contentSpec is the canonical form hashed by ContentKey: every spec
// and option bit that can influence a trial result, and nothing else.
// Presentation fields — titles, axis labels and label formats, notes —
// are deliberately absent, so editing them regenerates figures from
// cache without recomputing a single trial. Workers is absent because
// results are index-labeled; the git revision is absent by design —
// that is the whole point of content addressing.
type contentSpec struct {
	ID           string
	Base         core.Config
	SeriesParam  string
	SeriesValues []float64
	XParam       string
	XValues      []float64
	Measure      Measure
	Runs         int
	SecurityRuns int
	TraceRuns    int
	FaultRate    float64
	Seed         uint64
}

// ContentKey derives the content-addressed cache identity of running
// spec s at options opt: a hex sha256 of the spec's evaluation-
// affecting inputs. Two runs with equal content keys compute
// bit-identical trial results on any revision, any worker count, any
// fleet size — the invariant the result cache (internal/resultcache)
// rests on.
func ContentKey(s *Scenario, opt Options) (string, error) {
	canon, err := json.Marshal(contentSpec{
		ID:           s.ID,
		Base:         s.Base,
		SeriesParam:  s.Series.Param,
		SeriesValues: s.Series.Values,
		XParam:       s.X.Param,
		XValues:      s.X.Values,
		Measure:      s.Measure,
		Runs:         opt.Runs,
		SecurityRuns: opt.SecurityRuns,
		TraceRuns:    opt.TraceRuns,
		FaultRate:    opt.FaultRate,
		Seed:         opt.Seed,
	})
	if err != nil {
		return "", fmt.Errorf("scenario: content key for %s: %w", s.ID, err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
