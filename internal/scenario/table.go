package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Fixed series produced by the table kind, in column order.
var tableSeries = []string{
	"delivery sim", "delivery model", "transmissions",
	"traceable sim", "traceable model", "anonymity sim", "anonymity model",
}

// table evaluates the one-axis tradeoff sweep behind cmd/sweep: every
// X value yields one row of simulation and analysis metrics, emitted
// as seven fixed series (one per column). Unlike the delivery-curve
// kind, a trial that fails to find an eligible group path is an error,
// not a skip — the historical sweep semantics.
func (e *Engine) table(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	axisName := s.X.Name
	if axisName == "" {
		axisName = s.X.Param
	}
	series := make([]stats.Series, len(tableSeries))
	for i, name := range tableSeries {
		series[i] = stats.Series{Name: name}
	}
	for xi, v := range s.X.Values {
		endPhase := obs.Active().StartPhase(fmt.Sprintf("%s=%v", axisName, v))
		cfg := s.Base
		cfg.Seed = opt.Seed
		dl, frac := s.Measure.Deadline, s.Measure.Frac
		switch s.X.Param {
		case ParamFrac:
			frac = v
		case ParamDeadline:
			dl = v
		case ParamFault:
			cfg.ContactFailure = v
		default:
			if err := s.X.apply(&cfg, xi); err != nil {
				endPhase()
				return nil, nil, err
			}
		}
		row, err := e.tablePoint(cfg, dl, frac, fmt.Sprintf("%s/table/x%d", s.ID, xi))
		endPhase()
		if err != nil {
			return nil, nil, fmt.Errorf("%s=%v: %w", axisName, v, err)
		}
		for i := range series {
			series[i].Append(v, row[i], 0)
		}
	}
	return series, nil, nil
}

// tablePoint measures one sweep row, returning values in tableSeries
// order.
func (e *Engine) tablePoint(cfg core.Config, deadline, frac float64, batch string) ([7]float64, error) {
	opt := e.opt
	var row [7]float64
	nw, err := e.network(cfg)
	if err != nil {
		return row, err
	}
	row[4] = e.TraceableRate(cfg.Relays+1, frac)
	row[6] = nw.ModelPathAnonymity(frac)
	type trialOut struct {
		Delivered              bool
		Model, Tx, Trace, Anon float64
	}
	trials, err := Trials(e, batch, opt.Runs, func(i int) (trialOut, error) {
		trial, err := nw.NewTrial(i)
		if err != nil {
			return trialOut{}, err
		}
		res, err := nw.Route(trial, deadline, true, i)
		if err != nil {
			return trialOut{}, err
		}
		// Thinned model: identical to ModelDelivery when the
		// contact-failure rate is zero.
		m, err := e.DeliveryRate(nw.ThinnedRates(trial), cfg.Copies, deadline)
		if err != nil {
			return trialOut{}, err
		}
		sec, err := nw.FastSecurityTrial(frac, i)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{
			Delivered: res.Delivered,
			Model:     m,
			Tx:        float64(res.Transmissions),
			Trace:     sec.TraceableRate,
			Anon:      sec.PathAnonymity,
		}, nil
	})
	if err != nil {
		return row, err
	}
	var delivered int
	var model, tx, tr, an stats.Accumulator
	for _, to := range trials {
		if to.Delivered {
			delivered++
		}
		model.Add(to.Model)
		tx.Add(to.Tx)
		tr.Add(to.Trace)
		an.Add(to.Anon)
	}
	row[0] = float64(delivered) / float64(opt.Runs)
	row[1] = model.Mean()
	row[2] = tx.Mean()
	row[3] = tr.Mean()
	row[5] = an.Mean()
	return row, nil
}
