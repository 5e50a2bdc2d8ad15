package experiment

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	scenario.RegisterCustom("ablation-buffers", ablationBuffers)
}

// ablationBuffers stresses the full-crypto runtime (internal/node)
// under storage pressure — the resource the paper's infinite-buffer
// model abstracts away. A fixed Poisson traffic load (L=3 spray) is
// offered to 40 nodes whose custody buffers are capped at 1..8 onions
// (and uncapped), with and without anti-packet delivery ACKs. Tight
// buffers force custody refusals and depress delivery; anti-packets
// reclaim buffer space from already-delivered messages and recover
// most of the loss.
func ablationBuffers(e *scenario.Engine, sc *scenario.Scenario) ([]stats.Series, []string, error) {
	opt := e.Options()
	const nodes = 40
	const reps = 3
	limits := []float64{1, 2, 4, 8, 0} // 0 = unlimited, plotted at x=16
	messages := opt.Runs / 5
	if messages < 30 {
		messages = 30
	}
	// Each (anti, limit, rep) cell is an independent deterministic run;
	// cells execute on the supervised trial pool (flattened index j) and
	// aggregate in cell order, so output is worker-count invariant and
	// cacheable per cell.
	perAnti := len(limits) * reps
	cells, err := scenario.Trials(e, sc.ID+"/cells", 2*perAnti, func(j int) (float64, error) {
		anti := j >= perAnti
		lim := limits[(j%perAnti)/reps]
		rep := uint64(j % reps)
		nw, err := node.NewNetwork(node.Config{
			Nodes:       nodes,
			GroupSize:   5,
			Seed:        opt.Seed + rep,
			Spray:       true,
			AntiPackets: anti,
			BufferLimit: int(lim),
			Faults:      fault.Uniform(opt.FaultRate),
		})
		if err != nil {
			return 0, err
		}
		g := contact.NewRandom(nodes, 1, 30, rng.New(opt.Seed+rep+101))
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
			return 0, fmt.Errorf("experiment: buffers (anti=%v lim=%v): %w", anti, lim, err)
		}
		return res.DeliveryRatio, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var series []stats.Series
	for ai, anti := range []bool{false, true} {
		name := "No acknowledgements"
		if anti {
			name = "Anti-packets"
		}
		s := stats.Series{Name: name}
		for li, lim := range limits {
			var acc stats.Accumulator
			for rep := 0; rep < reps; rep++ {
				acc.Add(cells[ai*perAnti+li*reps+rep])
			}
			x := lim
			if lim == 0 {
				x = 16
			}
			s.Append(x, acc.Mean(), acc.CI95())
		}
		series = append(series, s)
	}
	notes := []string{
		fmt.Sprintf("%d messages at 1/min, 10h per-message deadline, every hand-off a real encrypted bundle", messages),
	}
	return series, notes, nil
}
