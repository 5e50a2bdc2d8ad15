package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// The figure pipeline: experiment.Generate for every paper figure
// (fig04-fig19). It runs through scenario, routing, model, adversary,
// des and contact, and never touches node, onion, bundle or cluster, so
// it is the no-change control for every message-layer optimisation.

// Effort per round at scale 1, and the figures' trial workers.
const (
	figureRuns, figureSecurityRuns, figureTraceRuns = 250, 2000, 25
	figureWorkers                                   = 2
	// figureWarmup divides the effort of the set-up pass.
	figureWarmup = 100
	// minTraceRuns keeps every trace-figure series valid: with a single
	// replay per copy count, some seeds leave a model series empty.
	minTraceRuns = 5
)

// figureGroup sorts figures into the three figure-pipeline metrics.
var figureGroup = map[string]string{
	"fig04": "delivery", "fig05": "delivery", "fig10": "delivery", "fig11": "delivery",
	"fig06": "security", "fig07": "security", "fig08": "security", "fig09": "security", "fig12": "security", "fig13": "security",
	"fig14": "trace", "fig15": "trace", "fig16": "trace", "fig17": "trace", "fig18": "trace", "fig19": "trace",
}

type figuresRound struct {
	opt experiment.Options
	ids []string
}

func figureOptions(seed uint64, scale float64) experiment.Options {
	return experiment.Options{
		Seed: seed, Workers: figureWorkers,
		Runs: scaled(figureRuns, scale), SecurityRuns: scaled(figureSecurityRuns, scale),
		TraceRuns: max(minTraceRuns, scaled(figureTraceRuns, scale)),
	}
}

// setupFigures resolves the figure list and makes one pass over every
// figure at a hundredth of the round's effort: it proves each figure
// generates and validates before timing starts, and its time is the
// pipeline's fixed per-figure cost (trace generation, engine and model
// set-up) more than its trial cost.
func setupFigures(cfg config) (round, error) {
	_, ids := experiment.Registry()
	warm := figureOptions(cfg.seed, cfg.scale/figureWarmup)
	for _, id := range ids {
		if figureGroup[id] == "" {
			return nil, fmt.Errorf("figure %s has no metric group", id)
		}
		fig, err := experiment.Generate(id, warm)
		if err != nil {
			return nil, err
		}
		if err := fig.Validate(); err != nil {
			return nil, err
		}
	}
	return &figuresRound{opt: figureOptions(cfg.seed, cfg.scale), ids: ids}, nil
}

func (f *figuresRound) close() {}

func (f *figuresRound) run(tr *tracer) (*result, error) {
	res := newResult()
	var col *obs.Collector
	if tr.on {
		col = obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
	}
	group := map[string]time.Duration{}
	var set time.Duration
	rt := tr.begin(cRound)
	for _, id := range f.ids {
		k := tr.begin(cGenerate)
		fig, err := experiment.Generate(id, f.opt)
		d := tr.end(k)
		set += d
		group[figureGroup[id]] += d
		k = tr.begin(cCheck)
		if err == nil {
			err = fig.Validate()
		}
		var js []byte
		if err == nil {
			js, err = fig.JSON()
		}
		if err == nil {
			sum := sha256.Sum256(js)
			res.hashes[id] = hex.EncodeToString(sum[:])
		}
		tr.end(k)
		if err != nil {
			res.fail("%s: %v", id, err)
		}
	}
	// One latency sample per round, the whole figure set: figure times
	// span 30 ms to 0.5 s, so a median over single figures would jump
	// between neighbouring figures with noise.
	res.lat = []time.Duration{set}
	res.wall = tr.end(rt)
	res.ops = len(f.ids)
	res.counts["figures"] = int64(len(res.hashes))
	if tr.on {
		l := res.layer
		for g, d := range group {
			l["figures."+g+"_s"] = d.Seconds()
		}
		l["experiment.trials"] = float64(col.Get(obs.ExpTrials))
		l["des.events"] = float64(col.Get(obs.DESEvents))
		if capacity := col.Get(obs.ExpBatchCapacityNanos); capacity > 0 {
			l["experiment.worker_util"] = float64(col.Get(obs.ExpTrialBusyNanos)) / float64(capacity)
		}
	}
	return res, nil
}
