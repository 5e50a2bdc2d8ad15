package scenario

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
)

// securityPoint measures one fast-mode security point of the kind's
// metric, drawing only the sampler that metric reads. Samples are drawn
// concurrently on opt.Workers workers and accumulated in trial order.
func (e *Engine) securityPoint(nw *core.Network, kind string, frac float64, runs, salt int, batch string) (stats.Summary, error) {
	want := adversary.Positions
	if kind == KindSecurityPoint {
		want = adversary.Traceable
	}
	vals, err := Trials(e, batch, runs, func(i int) (float64, error) {
		out, err := nw.FastSecurity(frac, salt*1000003+i, want)
		if err != nil {
			return 0, err
		}
		if want == adversary.Traceable {
			return out.TraceableRate, nil
		}
		return out.PathAnonymity, nil
	})
	if err != nil {
		return stats.Summary{}, err
	}
	var acc stats.Accumulator
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Summarize(), nil
}

// securitySweep runs the random-network security kinds: one Analysis +
// Simulation pair per series value, a point per X value. Either axis
// may sweep the compromised fraction; a spec with two config axes
// fixes the fraction at Measure.Frac. Per-point sampling salts are
// seriesKey*SeriesSaltStride + xKey (see Axis.saltKey), reproducing
// the historical per-figure schemes exactly.
func (e *Engine) securitySweep(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	xIsFrac := s.X.Param == ParamFrac
	seriesIsFrac := s.Series.Param == ParamFrac
	var series []stats.Series
	for si := range s.Series.Values {
		label := s.Series.Label(si)
		analysis := stats.Series{Name: "Analysis: " + label}
		simulation := stats.Series{Name: "Simulation: " + label}
		for xi, xv := range s.X.Values {
			cfg, err := e.seriesConfig(s, si, false)
			if err != nil {
				return nil, nil, err
			}
			if !xIsFrac {
				if err := s.X.apply(&cfg, xi); err != nil {
					return nil, nil, err
				}
			}
			frac := s.Measure.Frac
			switch {
			case xIsFrac:
				frac = xv
			case seriesIsFrac:
				frac = s.Series.Values[si]
			}
			nw, err := e.network(cfg)
			if err != nil {
				return nil, nil, err
			}
			var modelVal float64
			if s.Measure.Kind == KindSecurityPoint {
				modelVal = e.TraceableRate(cfg.Relays+1, frac)
			} else {
				modelVal = nw.ModelPathAnonymity(frac)
			}
			analysis.Append(xv, modelVal, 0)
			salt := s.Series.saltKey(si, false)*s.Measure.SeriesSaltStride + s.X.saltKey(xi, true)
			batch := fmt.Sprintf("%s/security/s%d/x%d", s.ID, si, xi)
			sum, err := e.securityPoint(nw, s.Measure.Kind, frac, opt.SecurityRuns, salt, batch)
			if err != nil {
				return nil, nil, err
			}
			simulation.Append(xv, sum.Mean, sum.CI95)
		}
		series = append(series, analysis, simulation)
	}
	return series, nil, nil
}

// traceSecurity runs the security kinds in trace-population style
// (Sec. V-D): the metrics are contact-graph independent, so only the
// population size Base.Nodes, the group size, the relay count and the
// per-series copy count matter. The small-n trace populations use the
// exact entropy ratio (Eqs. 14/17) instead of the Stirling form, whose
// n >> K premise fails there. One root stream per series value, seeded
// opt.Seed + copies; per-sample substreams labeled fracIndex*1e6 + i.
func (e *Engine) traceSecurity(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	n, g, relays := s.Base.Nodes, s.Base.GroupSize, s.Base.Relays
	fracs := s.X.Values
	var series []stats.Series
	for si := range s.Series.Values {
		l := int(s.Series.Values[si])
		label := s.Series.Label(si)
		analysis := stats.Series{Name: "Analysis: " + label}
		for _, frac := range fracs {
			var v float64
			if s.Measure.Kind == KindSecurityPoint {
				v = e.TraceableRate(relays+1, frac)
			} else {
				v = model.PathAnonymityMultiCopyExact(n, relays+1, g, frac, l)
			}
			analysis.Append(frac, v, 0)
		}
		root := rng.New(opt.Seed + uint64(l))
		simulation := stats.Series{Name: "Simulation: " + label}
		for fi, frac := range fracs {
			batch := fmt.Sprintf("%s/tracesec/s%d/x%d", s.ID, si, fi)
			vals, err := Trials(e, batch, opt.SecurityRuns, func(i int) (float64, error) {
				return traceSecurityTrial(root, fi*1000000+i, s.Measure.Kind, n, g, relays, l, frac)
			})
			if err != nil {
				return nil, nil, err
			}
			var acc stats.Accumulator
			for _, v := range vals {
				acc.Add(v)
			}
			simulation.Append(frac, acc.Mean(), acc.CI95())
		}
		series = append(series, analysis, simulation)
	}
	return series, nil, nil
}

// traceSecurityTrial draws one trace-population sample of the kind's
// metric from the trial stream root.SplitN("trial", i): an adversary
// compromising frac of the n nodes, and an L-copy path over relays
// groups of size g. Only the sampler the kind reads is drawn; both
// kinds reject the parameters either sampler rejects, in the same
// order, so a spec fails the same way whichever metric it measures.
func traceSecurityTrial(root *rng.Stream, i int, kind string, n, g, relays, l int, frac float64) (float64, error) {
	p := adversary.Path{Nodes: n, Relays: relays, Copies: l, GroupSize: g, Spray: l > 1}
	if kind == KindSecurityPoint {
		out, err := p.FastTrial(root, "trial", i, frac, adversary.Traceable)
		if err != nil {
			return 0, err
		}
		return out.TraceableRate, nil
	}
	out, err := p.FastTrial(root, "trial", i, frac, adversary.Positions)
	if err != nil {
		return 0, err
	}
	return model.PathAnonymityExact(n, relays+1, g, float64(out.CompromisedPositions)), nil
}
