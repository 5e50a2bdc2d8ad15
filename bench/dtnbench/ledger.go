package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// Every workload prints all of them; a layer its workload does not
// reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness_frac", "fraction"},
		{"ledger_residual_frac", "fraction"},
		{"trace_overhead_frac", "fraction"},
	}
	for _, l := range layers[:len(layers)-1] {
		defs = append(defs, metricDef{l + ".self_frac", "fraction"})
	}
	for _, op := range pipelineOps {
		defs = append(defs, metricDef{op.name + "_ns", "ns"})
		for _, c := range className {
			defs = append(defs, metricDef{op.name + "_ns." + c, "ns"})
		}
		defs = append(defs, metricDef{op.name + "_allocs", "allocs"})
		for _, c := range className {
			defs = append(defs, metricDef{op.name + "_allocs." + c, "allocs"})
		}
	}
	return append(defs, []metricDef{
		{"onion.allocs_per_layer", "allocs/layer"},
		{"onion.allocs_fixed", "allocs"},
		{"onion.build_ns_per_layer", "ns/layer"},
		{"onion.build_r2", "ratio"},
		{"onion.peel_ns_per_layer", "ns/layer"},
		{"onion.peel_r2", "ratio"},
		{"node.send_us", "us"},
		{"node.meet_us", "us"},
		{"node.meet_us_per_transfer", "us"},
		{"node.contacts", "count"},
		{"node.transfers", "count"},
		{"node.rejected", "count"},
		{"node.refused", "count"},
		{"node.purged", "count"},
		{"node.expired", "count"},
		{"node.backpressure_dropped", "count"},
		{"node.peak_custody", "count"},
		{"node.transfer_yield", "fraction"},
		{"node.allocs_per_contact", "allocs"},
		{"sim.des_self_s", "s"},
		{"cluster.send_us", "us"},
		{"cluster.contact_fixed_us", "us"},
		{"cluster.offer_us", "us"},
		{"cluster.dials", "count"},
		{"cluster.frames_per_contact", "count"},
		{"cluster.bytes_per_contact", "B"},
		{"cluster.frame_errors", "count"},
		{"retry.attempts", "count"},
		{"invariant.check_s", "s"},
		{"figures.delivery_s", "s"},
		{"figures.security_s", "s"},
		{"figures.trace_s", "s"},
		{"experiment.trials", "count"},
		{"des.events", "count"},
		{"experiment.worker_util", "fraction"},
	}...)
}()

// layerMetrics reduces the traced rounds to the per-layer metrics: the
// median over traced rounds of each round's value, the ledger shares of
// wall, the tracing overhead against the untraced rounds, and the
// workload's probe.
func layerMetrics(w benchWorkload, cfg config, untraced, traced []*result, out io.Writer) (map[string]float64, []string, error) {
	var problems []string
	for _, r := range traced {
		l := r.ledger
		r.layer["harness_frac"] = l.frac("harness")
		r.layer["ledger_residual_frac"] = float64(l.residual) / float64(l.wall)
		for _, name := range layers[:len(layers)-1] {
			r.layer[name+".self_frac"] = l.frac(name)
		}
	}
	m := medianOf(traced, func(r *result) map[string]float64 { return r.layer })
	walls := func(rs []*result) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.wall.Seconds()
		}
		return median(v)
	}
	m["trace_overhead_frac"] = walls(traced)/walls(untraced) - 1
	if m["harness_frac"] > maxHarnessFrac {
		problems = append(problems, fmt.Sprintf("harness_frac %.4f exceeds %.2f: the harness, not the system, is being measured", m["harness_frac"], maxHarnessFrac))
	}
	if w.probe != nil {
		pm, pp, err := w.probe(cfg, out)
		if err != nil {
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
		for k, v := range pm {
			m[k] = v
		}
		problems = append(problems, pp...)
	}
	return m, problems, nil
}

// printLedger prints the traced rounds' wall split into layer self times,
// then every per-layer metric the workload reached.
func printLedger(w io.Writer, traced []*result, m map[string]float64) {
	var total ledger
	total.self = map[string]int64{}
	for _, r := range traced {
		total.wall += r.ledger.wall
		total.residual += r.ledger.residual
		for k, v := range r.ledger.self {
			total.self[k] += v
		}
	}
	fmt.Fprintf(w, "ledger over %d traced rounds (self time):\n", len(traced))
	row := func(name string, ns int64) {
		fmt.Fprintf(w, "  %-12s %10.4f s %7.2f%%\n", name, time.Duration(ns).Seconds(), 100*float64(ns)/float64(total.wall))
	}
	for _, l := range layers {
		if total.self[l] != 0 {
			row(l, total.self[l])
		}
	}
	row("residual", total.residual)
	row("wall", total.wall)
	names := make([]string, 0, len(m))
	for k, v := range m {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", k, m[k], units[k])
	}
}
