package experiment

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	scenario.RegisterCustom("ablation-baselines", ablationBaselines)
}

// ablationBaselines quantifies the price of anonymity: onion routing
// (K=3, L=1 and L=3 spray) against the non-anonymous DTN protocols the
// paper reviews in Sec. VI-A — epidemic flooding, binary
// spray-and-wait, PRoPHET, and direct delivery — on one random contact
// graph. The four engine-driven baselines are evaluated on the
// IDENTICAL contact stream per run (sim.Fanout paired comparison).
// Epidemic upper-bounds delivery and direct delivery costs one
// transmission; on a complete contact graph even direct delivery beats
// the onion's K+1 serial hops, the starkest view of what the anonymity
// constraint costs in delay.
func ablationBaselines(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	const n = 100
	const copies = 3
	root := rng.New(opt.Seed)
	g := contact.NewRandom(n, 1, 360, root.Split("graph"))
	deadlines := scenario.DeliveryDeadlines()
	maxT := deadlines[len(deadlines)-1]

	onionCfg := core.DefaultConfig()
	onionCfg.Seed = opt.Seed
	onionCfg.ContactFailure = opt.FaultRate
	onionNet, err := core.NewNetwork(onionCfg)
	if err != nil {
		return nil, nil, err
	}
	onionCfg3 := onionCfg
	onionCfg3.Copies = copies
	onionNet3, err := core.NewNetwork(onionCfg3)
	if err != nil {
		return nil, nil, err
	}

	names := []string{
		"Onion (K=3, L=1)",
		fmt.Sprintf("Onion (K=3, L=%d spray)", copies),
		"Epidemic",
		fmt.Sprintf("Binary spray-and-wait (L=%d)", copies),
		"PRoPHET",
		"Direct delivery",
	}
	type baselineTrial struct {
		Obs [6]obsPoint
		Tx  [6]float64
	}
	trials, err := scenario.Trials(e, sc.ID+"/baselines", opt.Runs, func(i int) (baselineTrial, error) {
		s := root.SplitN("run", i)
		src := contact.NodeID(s.IntN(n))
		dst := contact.NodeID(s.PickOther(n, int(src)))

		var bt baselineTrial
		// Onion lines use the direct sampler (statistically identical
		// to the engine; see the KS cross-check).
		for oi, nw := range []*core.Network{onionNet, onionNet3} {
			trial, err := nw.NewTrial(i)
			if err != nil {
				return baselineTrial{}, err
			}
			res, err := nw.Route(trial, maxT, false, i)
			if err != nil {
				return baselineTrial{}, err
			}
			bt.Obs[oi] = obsPoint{res.Delivered, res.Time}
			bt.Tx[oi] = float64(res.Transmissions)
		}

		// Engine-driven baselines share one identical contact stream.
		epi, err := routing.NewEpidemic(src, dst)
		if err != nil {
			return baselineTrial{}, err
		}
		bin, err := routing.NewBinarySprayAndWait(src, dst, copies)
		if err != nil {
			return baselineTrial{}, err
		}
		pro, err := routing.NewProphet(n, src, dst)
		if err != nil {
			return baselineTrial{}, err
		}
		dir, err := routing.NewDirect(src, dst)
		if err != nil {
			return baselineTrial{}, err
		}
		// The fault layer drops each contact for the whole fan-out at
		// once, so the paired comparison stays paired under faults.
		sim.RunSynthetic(g, maxT, s.Split("contacts"),
			sim.Lossy(sim.Fanout{epi, bin, pro, dir}, opt.FaultRate, s.Split("faults")))
		for bi, r := range []routing.BaselineResult{
			epi.Result(), bin.Result(), pro.Result(), dir.Result(),
		} {
			bt.Obs[2+bi] = obsPoint{r.Delivered, r.Time}
			bt.Tx[2+bi] = float64(r.Transmissions)
		}
		return bt, nil
	})
	if err != nil {
		return nil, nil, err
	}

	ecdfs := make([]*stats.ECDF, len(names))
	txs := make([]stats.Accumulator, len(names))
	for i := range ecdfs {
		ecdfs[i] = stats.NewECDF()
	}
	for _, bt := range trials {
		for bi := range names {
			observe(ecdfs[bi], bt.Obs[bi].Delivered, bt.Obs[bi].T)
			txs[bi].Add(bt.Tx[bi])
		}
	}

	var series []stats.Series
	var notes []string
	for i, name := range names {
		s := stats.Series{Name: name}
		for _, t := range deadlines {
			s.Append(t, ecdfs[i].At(t), 0)
		}
		series = append(series, s)
		notes = append(notes, fmt.Sprintf("%s: %.1f mean transmissions", name, txs[i].Mean()))
	}
	return series, notes, nil
}
