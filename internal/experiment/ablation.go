package experiment

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	scenario.RegisterCustom("ablation-traceable", ablationTraceable)
	scenario.RegisterCustom("ablation-tps", ablationTPS)
	scenario.RegisterCustom("ablation-model-gap", ablationModelGap)
}

// ablationTraceable compares the two reconstructions of the
// traceable-rate analysis (DESIGN.md Sec. 5.4): the exact run-length
// expectation used as the headline model versus the paper's literal
// small-c geometric approximation (Eqs. 8-12), against a Monte-Carlo
// reference.
func ablationTraceable(e *scenario.Engine, s *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	const eta = 4 // K = 3
	fracs := scenario.CompromisedFractions()
	exact := stats.Series{Name: "Exact expectation"}
	approx := stats.Series{Name: "Paper approximation (Eqs. 8-12)"}
	mc := stats.Series{Name: "Monte Carlo"}
	root := rng.New(opt.Seed)
	for fi, frac := range fracs {
		exact.Append(frac, model.TraceableRate(eta, frac), 0)
		approx.Append(frac, model.TraceableRatePaperApprox(eta, frac), 0)
		// One index-labeled substream per sample (not one shared stream
		// per point) so the Monte Carlo column is worker-count
		// invariant.
		vals, err := scenario.Trials(e, fmt.Sprintf("%s/mc/f%d", s.ID, fi), opt.SecurityRuns, func(i int) (float64, error) {
			st := root.SplitN("mc", fi*1000003+i)
			bits := make([]bool, eta)
			for b := range bits {
				bits[b] = st.Bernoulli(frac)
			}
			return model.TraceableRateOfPath(bits), nil
		})
		if err != nil {
			return nil, nil, err
		}
		var acc stats.Accumulator
		for _, v := range vals {
			acc.Add(v)
		}
		mc.Append(frac, acc.Mean(), acc.CI95())
	}
	return []stats.Series{exact, approx, mc}, nil, nil
}

// ablationTPS compares onion routing (K = 3 and K = 10, L = 1)
// against the Threshold Pivot Scheme (s = 3 share groups, tau = 2)
// from Sec. VI-C on delivery rate vs. deadline. The related work
// credits TPS with "alleviating the longer delay due to the use of
// onions"; the reproduction shows the fine print: the pivot is a
// single node, so the relay-to-pivot and pivot-to-destination hops are
// single-pair contact bottlenecks. TPS therefore only wins against
// long onion paths — short group-aggregated onion paths beat it.
func ablationTPS(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	const n = 100
	root := rng.New(opt.Seed)
	g := contact.NewRandom(n, 1, 360, root.Split("graph"))
	deadlines := scenario.DeliveryDeadlines()
	maxT := deadlines[len(deadlines)-1]

	type tpsTrial struct {
		Onion3, Onion10, TPS obsPoint
		OnionTx, TPSTx       float64
	}
	trials, err := scenario.Trials(e, sc.ID+"/tps", opt.Runs, func(i int) (tpsTrial, error) {
		s := root.SplitN("run", i)
		src := contact.NodeID(s.IntN(n))
		dst := contact.NodeID(s.PickOther(n, int(src)))
		var pivot contact.NodeID
		for {
			pivot = contact.NodeID(s.IntN(n))
			if pivot != src && pivot != dst {
				break
			}
		}
		makeSets := func(k int, used map[contact.NodeID]bool) [][]contact.NodeID {
			sets := make([][]contact.NodeID, k)
			for gi := range sets {
				for len(sets[gi]) < 5 {
					v := contact.NodeID(s.IntN(n))
					if !used[v] {
						used[v] = true
						sets[gi] = append(sets[gi], v)
					}
				}
			}
			return sets
		}
		sets3 := makeSets(3, map[contact.NodeID]bool{src: true, dst: true, pivot: true})
		sets10 := makeSets(10, map[contact.NodeID]bool{src: true, dst: true})

		var out tpsTrial
		or3, err := routing.SampleOnion(g, routing.Params{Src: src, Dst: dst, Sets: sets3, Copies: 1}, maxT, s.Split("onion3"))
		if err != nil {
			return tpsTrial{}, err
		}
		out.Onion3 = obsPoint{or3.Delivered, or3.Time}
		out.OnionTx = float64(or3.Transmissions)

		or10, err := routing.SampleOnion(g, routing.Params{Src: src, Dst: dst, Sets: sets10, Copies: 1}, maxT, s.Split("onion10"))
		if err != nil {
			return tpsTrial{}, err
		}
		out.Onion10 = obsPoint{or10.Delivered, or10.Time}

		tp, err := routing.NewTPS(routing.TPSParams{
			Src: src, Dst: dst, Pivot: pivot, Sets: sets3, Threshold: 2,
		})
		if err != nil {
			return tpsTrial{}, err
		}
		sim.RunSynthetic(g, maxT, s.Split("tps"), tp)
		tr := tp.Result()
		out.TPS = obsPoint{tr.Delivered, tr.Time}
		out.TPSTx = float64(tr.Transmissions)
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}

	onion3ECDF, onion10ECDF, tpsECDF := stats.NewECDF(), stats.NewECDF(), stats.NewECDF()
	var onionTx, tpsTx stats.Accumulator
	for _, tt := range trials {
		observe(onion3ECDF, tt.Onion3.Delivered, tt.Onion3.T)
		onionTx.Add(tt.OnionTx)
		observe(onion10ECDF, tt.Onion10.Delivered, tt.Onion10.T)
		observe(tpsECDF, tt.TPS.Delivered, tt.TPS.T)
		tpsTx.Add(tt.TPSTx)
	}

	onion3 := stats.Series{Name: "Onion groups (K=3)"}
	onion10 := stats.Series{Name: "Onion groups (K=10)"}
	tps := stats.Series{Name: "TPS (s=3, tau=2)"}
	for _, t := range deadlines {
		onion3.Append(t, onion3ECDF.At(t), 0)
		onion10.Append(t, onion10ECDF.At(t), 0)
		tps.Append(t, tpsECDF.At(t), 0)
	}
	notes := []string{
		fmt.Sprintf("mean transmissions: onion K=3 %.1f, TPS %.1f (bound 2s+1 = 7)", onionTx.Mean(), tpsTx.Mean()),
	}
	return []stats.Series{onion3, onion10, tps}, notes, nil
}

// obsPoint is one simulated delivery observation awaiting in-order
// aggregation into an ECDF. Fields are exported so cached trial
// results gob-encode.
type obsPoint struct {
	Delivered bool
	T         float64
}

func observe(e *stats.ECDF, delivered bool, t float64) {
	if delivered {
		e.Observe(t)
	} else {
		e.ObserveCensored()
	}
}

// ablationModelGap decomposes the analysis-vs-simulation delivery gap
// the paper observes in Figs. 5 and 10. Eq. 4's optimism has two
// sources: (a) the LAST hop sums contact rates over all g members of
// R_K although only one member holds the message — present even with
// homogeneous rates — and (b) averaging middle-hop rates over group
// members, which under heavy-tailed rates confuses 1/E[rate] with
// E[1/rate]. Sweeping the ICT spread while also plotting a corrected
// model (last hop averaged instead of summed) separates the two.
func ablationModelGap(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	spreads := []float64{2, 30, 90, 180, 360, 720}
	paperS := stats.Series{Name: "Analysis (Eq. 4 as printed)"}
	corrS := stats.Series{Name: "Analysis (last hop averaged)"}
	simS := stats.Series{Name: "Simulation"}
	for mi, maxICT := range spreads {
		cfg := core.DefaultConfig()
		cfg.MaxICT = maxICT
		cfg.Seed = opt.Seed
		cfg.ContactFailure = opt.FaultRate
		nw, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, nil, err
		}
		// Deadline scaled to twice the corrected model's mean traversal
		// so every spread is compared at the same relative operating
		// point.
		type gapTrial struct {
			OK, Delivered bool
			Paper, Corr   float64
		}
		trials, err := scenario.Trials(e, fmt.Sprintf("%s/gap/ict%d", sc.ID, mi), opt.Runs, func(i int) (gapTrial, error) {
			trial, err := nw.NewTrial(i)
			if err != nil {
				return gapTrial{}, nil
			}
			corrected := append([]float64(nil), trial.Rates...)
			lastGroup := trial.Sets[len(trial.Sets)-1]
			corrected[len(corrected)-1] /= float64(len(lastGroup))
			meanTraversal := 0.0
			for _, r := range corrected {
				meanTraversal += 1 / r
			}
			deadline := 2 * meanTraversal

			m, err := nw.ModelDelivery(trial, deadline)
			if err != nil {
				return gapTrial{}, err
			}
			mc, err := model.DeliveryRate(corrected, deadline)
			if err != nil {
				return gapTrial{}, err
			}
			res, err := nw.Route(trial, deadline, false, i)
			if err != nil {
				return gapTrial{}, err
			}
			return gapTrial{OK: true, Delivered: res.Delivered, Paper: m, Corr: mc}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		var paperAcc, corrAcc stats.Accumulator
		delivered, total := 0, 0
		for _, gt := range trials {
			if !gt.OK {
				continue
			}
			paperAcc.Add(gt.Paper)
			corrAcc.Add(gt.Corr)
			if gt.Delivered {
				delivered++
			}
			total++
		}
		paperS.Append(maxICT, paperAcc.Mean(), paperAcc.CI95())
		corrS.Append(maxICT, corrAcc.Mean(), corrAcc.CI95())
		simS.Append(maxICT, float64(delivered)/float64(total), 0)
	}
	return []stats.Series{paperS, corrS, simS}, nil, nil
}
