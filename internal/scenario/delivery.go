package scenario

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/stats"
)

// deliveryTrial is the outcome of one routed message: the simulated
// delivery plus the analytical delivery rate at every deadline. A
// skipped trial (no eligible group path) contributes nothing. Fields
// are exported so cached results gob-encode.
type deliveryTrial struct {
	Skipped   bool
	Delivered bool
	Time      float64
	Tx        float64
	Model     []float64 // per deadline; nil when SimOnly
}

// deliveryCurve runs one simulation series (and, unless SimOnly, one
// paired analysis series) per series-axis value: each routed message
// is simulated once to the maximum deadline and its delivery time
// feeds an empirical CDF, which is exactly the delivery rate as a
// function of the deadline. Trials run concurrently on opt.Workers
// workers and are aggregated in trial order, so the series are
// identical for every worker count.
func (e *Engine) deliveryCurve(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	deadlines := s.X.Values
	maxT := deadlines[len(deadlines)-1]
	var series []stats.Series
	var notes []string
	for si := range s.Series.Values {
		label := s.Series.Label(si)
		cfg, err := e.seriesConfig(s, si, true)
		if err != nil {
			return nil, nil, err
		}
		nw, err := e.network(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: %s: %w", label, err)
		}
		simOnly := s.Measure.SimOnly
		batch := fmt.Sprintf("%s/delivery/s%d", s.ID, si)
		trials, err := Trials(e, batch, opt.Runs, func(i int) (deliveryTrial, error) {
			trial, err := nw.NewTrial(i)
			if err != nil {
				return deliveryTrial{Skipped: true}, nil
			}
			res, err := nw.Route(trial, maxT, s.Measure.RunToCompletion, i)
			if err != nil {
				return deliveryTrial{}, fmt.Errorf("%s run %d: %w", label, i, err)
			}
			dt := deliveryTrial{
				Delivered: res.Delivered,
				Time:      res.Time,
				Tx:        float64(res.Transmissions),
			}
			if !simOnly {
				dt.Model = make([]float64, len(deadlines))
				for d, t := range deadlines {
					m, err := e.DeliveryRate(trial.Rates, cfg.Copies, t)
					if err != nil {
						return deliveryTrial{}, fmt.Errorf("%s model: %w", label, err)
					}
					dt.Model[d] = m
				}
			}
			return dt, nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: %w", err)
		}
		ecdf := stats.NewECDF()
		modelAcc := make([]stats.Accumulator, len(deadlines))
		var tx stats.Accumulator
		skipped := 0
		for _, dt := range trials {
			if dt.Skipped {
				skipped++
				continue
			}
			if dt.Delivered {
				ecdf.Observe(dt.Time)
			} else {
				ecdf.ObserveCensored()
			}
			tx.Add(dt.Tx)
			for d := range dt.Model {
				modelAcc[d].Add(dt.Model[d])
			}
		}
		if skipped > 0 && !simOnly {
			notes = append(notes, fmt.Sprintf("%s: %d trials skipped (no eligible group path)", label, skipped))
		}

		simName := label
		if !simOnly {
			simName = "Simulation: " + label
		}
		simulation := stats.Series{Name: simName}
		analysis := stats.Series{Name: "Analysis: " + label}
		n := float64(ecdf.N())
		for d, t := range deadlines {
			if !simOnly {
				analysis.Append(t, modelAcc[d].Mean(), modelAcc[d].CI95())
			}
			p := ecdf.At(t)
			ci := 0.0
			if n > 0 {
				ci = 1.96 * math.Sqrt(p*(1-p)/n)
			}
			simulation.Append(t, p, ci)
		}
		if simOnly {
			series = append(series, simulation)
		} else {
			series = append(series, analysis, simulation)
		}
		if s.Measure.TxNotes {
			notes = append(notes, fmt.Sprintf("%s: %.1f mean transmissions", label, tx.Mean()))
		}
	}
	return series, notes, nil
}

// cost plots the transmission bounds of Sec. IV-C — the non-anonymous
// baseline 2L and the analysis bound 2L-1+KL — against the simulated
// protocol's mean transmissions, per copy count.
func (e *Engine) cost(s *Scenario) ([]stats.Series, []string, error) {
	opt := e.opt
	nonAnon := stats.Series{Name: "Non-anonymous"}
	analysis := stats.Series{Name: "Analysis"}
	simulation := stats.Series{Name: "Simulation"}
	for xi, lv := range s.X.Values {
		l := int(lv)
		nonAnon.Append(float64(l), float64(model.CostNonAnonymous(l)), 0)
		analysis.Append(float64(l), float64(model.CostMultiCopyBound(s.Base.Relays, l)), 0)

		cfg := s.Base
		cfg.Copies = l
		cfg.Seed = opt.Seed
		if opt.FaultRate != 0 {
			cfg.ContactFailure = opt.FaultRate
		}
		nw, err := e.network(cfg)
		if err != nil {
			return nil, nil, err
		}
		type txTrial struct {
			Ok bool
			Tx float64
		}
		batch := fmt.Sprintf("%s/cost/x%d", s.ID, xi)
		trials, err := Trials(e, batch, opt.Runs, func(i int) (txTrial, error) {
			trial, err := nw.NewTrial(i)
			if err != nil {
				return txTrial{}, nil
			}
			res, err := nw.Route(trial, s.Measure.Deadline, true, i)
			if err != nil {
				return txTrial{}, err
			}
			return txTrial{Ok: true, Tx: float64(res.Transmissions)}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		var acc stats.Accumulator
		for _, tt := range trials {
			if tt.Ok {
				acc.Add(tt.Tx)
			}
		}
		simulation.Append(float64(l), acc.Mean(), acc.CI95())
	}
	return []stats.Series{nonAnon, analysis, simulation}, nil, nil
}
