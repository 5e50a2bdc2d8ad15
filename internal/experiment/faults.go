package experiment

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	scenario.RegisterCustom("ablation-faults", ablationFaults)
}

// ablationFaults sweeps the fault-injection rate and plots what each
// layer of the stack reports against the paper's unfaulted analysis
// (Eqs. 4–7). Four delivery views share the x-axis:
//
//   - the ideal analysis (flat — the paper assumes lossless contacts);
//   - the thinned analysis, every pair rate scaled to λ(1−p) (exact by
//     Poisson thinning, see core.ModelDeliveryLossy);
//   - the abstract simulation with per-contact failure probability p;
//   - the full-crypto runtime under fault.Uniform(p): truncated
//     hand-offs, corrupted frames, duplicate redelivery and node churn
//     all at once, with in-contact retransmission and custody re-offer
//     doing the repairing.
//
// Two more series complete the picture: the abstract simulation's mean
// transmission cost (repairs are not free) and the model path anonymity
// at c/n = 10%, which is flat — faults change availability, not the
// anonymity set at a fixed compromised fraction.
//
// The sweep is internal; opt.FaultRate (the knob that applies a single
// rate to the standard figures) is deliberately ignored here. At rate 0
// every series reproduces the unfaulted pipeline byte-for-byte.
func ablationFaults(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	const deadline = 600.0 // minutes

	ideal := stats.Series{Name: "Analysis (Eq. 4-7, ideal contacts)"}
	thinned := stats.Series{Name: "Analysis (thinned to λ(1-p))"}
	abstract := stats.Series{Name: "Simulation (abstract, lossy contacts)"}
	cost := stats.Series{Name: "Simulation cost (mean transmissions)"}
	runtime := stats.Series{Name: "Runtime (full crypto, uniform faults)"}
	anon := stats.Series{Name: "Path anonymity (model, c/n=10%)"}

	// Abstract layer: one environment per rate, same seed, so the
	// contact graph, groups and trial draws pair exactly across rates.
	type abstractTrial struct {
		Delivered       bool
		Tx              float64
		Ideal, ThinnedP float64
	}
	var idealMean float64
	var anonVal float64
	for ri, rate := range rates {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.ContactFailure = rate
		nw, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, nil, err
		}
		trials, err := scenario.Trials(e, fmt.Sprintf("%s/abstract/r%d", sc.ID, ri), opt.Runs, func(i int) (abstractTrial, error) {
			trial, err := nw.NewTrial(i)
			if err != nil {
				return abstractTrial{}, err
			}
			res, err := nw.Route(trial, deadline, false, i)
			if err != nil {
				return abstractTrial{}, err
			}
			at := abstractTrial{Delivered: res.Delivered, Tx: float64(res.Transmissions)}
			if at.Ideal, err = nw.ModelDelivery(trial, deadline); err != nil {
				return abstractTrial{}, err
			}
			if at.ThinnedP, err = nw.ModelDeliveryLossy(trial, deadline); err != nil {
				return abstractTrial{}, err
			}
			return at, nil
		})
		if err != nil {
			return nil, nil, err
		}
		var delAcc, txAcc, idealAcc, thinAcc stats.Accumulator
		for _, at := range trials {
			if at.Delivered {
				delAcc.Add(1)
			} else {
				delAcc.Add(0)
			}
			txAcc.Add(at.Tx)
			idealAcc.Add(at.Ideal)
			thinAcc.Add(at.ThinnedP)
		}
		if ri == 0 {
			// The ideal analysis and the anonymity metric do not depend
			// on the fault rate; evaluate once and plot flat.
			idealMean = idealAcc.Mean()
			anonVal = nw.ModelPathAnonymity(0.1)
		}
		ideal.Append(rate, idealMean, 0)
		thinned.Append(rate, thinAcc.Mean(), thinAcc.CI95())
		abstract.Append(rate, delAcc.Mean(), delAcc.CI95())
		cost.Append(rate, txAcc.Mean(), txAcc.CI95())
		anon.Append(rate, anonVal, 0)
	}

	// Runtime layer: real encrypted bundles over internal/node with the
	// uniform fault mix. Each (rate, rep) cell is an independent
	// deterministic run; cells execute concurrently via scenario.Trials and
	// aggregate in cell order, so output is worker-count invariant.
	const (
		rtNodes = 40
		rtReps  = 2
	)
	messages := opt.Runs / 5
	if messages < 20 {
		messages = 20
	}
	type runtimeCell struct {
		Rate  float64
		Stats node.Stats
	}
	cells, err := scenario.Trials(e, sc.ID+"/runtime", len(rates)*rtReps, func(j int) (runtimeCell, error) {
		rate := rates[j/rtReps]
		rep := uint64(j % rtReps)
		nw, err := node.NewNetwork(node.Config{
			Nodes:     rtNodes,
			GroupSize: 5,
			Seed:      opt.Seed + rep,
			Spray:     true,
			Faults:    fault.Uniform(rate),
		})
		if err != nil {
			return runtimeCell{}, err
		}
		g := contact.NewRandom(rtNodes, 1, 30, rng.New(opt.Seed+rep+101))
		res, err := workload.Run(nw, g, workload.Spec{
			Messages:    messages,
			ArrivalRate: 1,
			PayloadSize: 128,
			Relays:      3,
			Copies:      3,
			ExpiryAfter: 600,
			Seed:        opt.Seed + rep + 7,
		}, float64(messages)+1200)
		if err != nil {
			return runtimeCell{}, fmt.Errorf("experiment: faults (rate=%v rep=%d): %w", rate, rep, err)
		}
		return runtimeCell{Rate: res.DeliveryRate, Stats: res.Totals}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var injected node.Stats
	for ri, rate := range rates {
		var acc stats.Accumulator
		for rep := 0; rep < rtReps; rep++ {
			c := cells[ri*rtReps+rep]
			acc.Add(c.Rate)
			injected.Truncated += c.Stats.Truncated
			injected.Corrupted += c.Stats.Corrupted
			injected.Retried += c.Stats.Retried
			injected.Duplicates += c.Stats.Duplicates
			injected.Crashes += c.Stats.Crashes
			injected.CrashDropped += c.Stats.CrashDropped
		}
		runtime.Append(rate, acc.Mean(), acc.CI95())
	}

	notes := []string{
		fmt.Sprintf("%d abstract trials per rate, 10h deadline; runtime: %d messages x %d reps on %d nodes per rate",
			opt.Runs, messages, rtReps, rtNodes),
		fmt.Sprintf("runtime faults injected across the sweep: %d truncations (%d retransmits), %d corruptions, %d duplicates, %d crashes (%d custody onions dropped)",
			injected.Truncated, injected.Retried, injected.Corrupted, injected.Duplicates, injected.Crashes, injected.CrashDropped),
	}
	return []stats.Series{ideal, thinned, abstract, cost, runtime, anon}, notes, nil
}
