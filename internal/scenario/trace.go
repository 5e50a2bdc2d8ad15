package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Trace names accepted by Measure.Trace (Sec. V-D/E populations).
const (
	TraceCambridge = "cambridge"
	TraceInfocom   = "infocom"
)

// traceNetwork builds the named synthetic trace network. The trace is
// generated from opt.Seed and replayed with opt.Seed+1, exactly as the
// historical per-figure builders did.
func (e *Engine) traceNetwork(name string) (*core.TraceNetwork, error) {
	var (
		tr  *trace.Trace
		err error
	)
	switch name {
	case TraceCambridge:
		tr, err = trace.GenerateCambridge(rng.New(e.opt.Seed))
	case TraceInfocom:
		tr, err = trace.GenerateInfocom(rng.New(e.opt.Seed))
	default:
		return nil, fmt.Errorf("scenario: unknown trace %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: generate %s: %w", name, err)
	}
	return core.NewTraceNetwork(tr, e.opt.Seed+1)
}

// traceTrialOutcome is one replayed trace message: the simulated delay
// plus the analytical delivery rate per deadline (ModelOK is false
// where the fitted path had a zero-rate hop and the model could not be
// evaluated). Fields are exported so cached results gob-encode.
type traceTrialOutcome struct {
	Delivered bool
	Delay     float64
	Model     []float64
	ModelOK   []bool
}

// traceReplay builds one Analysis + Simulation pair per copy count by
// replaying the trace (deadlines in seconds). Replays run concurrently
// on opt.Workers workers and aggregate in trial order.
func (e *Engine) traceReplay(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	tn, err := e.traceNetwork(s.Measure.Trace)
	if err != nil {
		return nil, nil, err
	}
	g, relays := s.Base.GroupSize, s.Base.Relays
	deadlines := s.X.Values
	maxT := deadlines[len(deadlines)-1]
	var series []stats.Series
	var notes []string
	for si := range s.Series.Values {
		l := int(s.Series.Values[si])
		batch := fmt.Sprintf("%s/replay/s%d", s.ID, si)
		trials, err := Trials(e, batch, opt.TraceRuns, func(i int) (traceTrialOutcome, error) {
			trial, err := tn.NewTrial(l*1000000+i, g, relays)
			if err != nil {
				return traceTrialOutcome{}, err
			}
			res, err := tn.RouteLossy(trial, maxT, l, true, false, opt.FaultRate, l*1000000+i)
			if err != nil {
				return traceTrialOutcome{}, err
			}
			out := traceTrialOutcome{
				Delivered: res.Delivered,
				Delay:     res.Time - trial.Start,
				Model:     make([]float64, len(deadlines)),
				ModelOK:   make([]bool, len(deadlines)),
			}
			for d, t := range deadlines {
				if trial.Rates == nil {
					continue
				}
				m, err := e.DeliveryRate(trial.Rates, l, t)
				if err != nil {
					return traceTrialOutcome{}, err
				}
				out.Model[d], out.ModelOK[d] = m, true
			}
			return out, nil
		})
		if err != nil {
			return nil, nil, err
		}
		ecdf := stats.NewECDF()
		modelAcc := make([]stats.Accumulator, len(deadlines))
		modelSkipped := 0
		for _, tt := range trials {
			if tt.Delivered {
				ecdf.Observe(tt.Delay)
			} else {
				ecdf.ObserveCensored()
			}
			for d := range deadlines {
				if !tt.ModelOK[d] {
					if d == 0 {
						modelSkipped++
					}
					continue
				}
				modelAcc[d].Add(tt.Model[d])
			}
		}
		if modelSkipped > 0 {
			notes = append(notes, fmt.Sprintf(
				"L=%d: %d/%d trials excluded from the analysis curve (a fitted hop rate was zero)",
				l, modelSkipped, opt.TraceRuns))
		}
		label := s.Series.Label(si)
		analysis := stats.Series{Name: "Analysis: " + label}
		simulation := stats.Series{Name: "Simulation: " + label}
		n := float64(ecdf.N())
		for d, t := range deadlines {
			analysis.Append(t, modelAcc[d].Mean(), modelAcc[d].CI95())
			p := ecdf.At(t)
			ci := 0.0
			if n > 0 {
				ci = 1.96 * math.Sqrt(p*(1-p)/n)
			}
			simulation.Append(t, p, ci)
		}
		series = append(series, analysis, simulation)
	}
	return series, notes, nil
}
