package cluster_test

// The chaos differential: the live tier runs the identical (workload,
// trace, seed) as the in-process reference, but every cluster
// connection passes through the seed-driven turbulence layer — delays,
// throttles, resets, half-open stalls, short-read tears, asymmetric
// partitions. The delivered message set and conserved stats must still
// agree EXACTLY, and every safety invariant must hold: chaos is allowed
// to cost wall time, never outcomes.
//
// This is an external test package because it closes the loop through
// internal/cluster/invariant, which itself imports cluster.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/rng"
	"repro/internal/trace"
)

// chaosFor builds the turbulence layer for a test: the full fault
// repertoire with its delays and stalls scaled to about a third and its
// throttles to four times the bandwidth, so a CI run under -race stays
// fast. That changes nothing about coverage (every fault kind still
// fires) or determinism.
func chaosFor(seed uint64, nodes int) *chaos.Chaos {
	p := chaos.NewPlan(seed, nodes)
	for i := range p.Slots {
		s := &p.Slots[i]
		s.DelayMs = (s.DelayMs + 2) / 3
		s.StallMs = (s.StallMs + 2) / 3
		s.Bps *= 4
	}
	return chaos.FromPlan(p)
}

// TestDifferentialConferenceTraceUnderChaos replays the conference
// trace of TestDifferentialConferenceTrace through chaos seeds {1, 42}
// at 1 and 4 workers, demanding exact delivered-set and stats agreement
// with the chaos-free in-process reference, plus a clean invariant
// report.
func TestDifferentialConferenceTraceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	full, err := trace.GenerateInfocom(rng.New(11).Split("trace"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := full.KeepBusiest(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Nodes: 5, GroupSize: 2, Seed: 11, Spray: true, Timeout: 10 * time.Second}
	msgs := cluster.SyntheticWorkload(11, 5, 12, 1, 2)
	const from, horizon = 32400, 7200

	ref, err := cluster.RunReference(cfg, msgs, tr, from, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.NetworkDeliveries(ref, msgs)
	if len(want) == 0 {
		t.Fatal("reference run delivered nothing — the differential would be vacuous")
	}
	wantStats := cluster.Subset(ref.TotalStats())
	spec := specOf(msgs)

	for _, chaosSeed := range []uint64{1, 42} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("chaos=%d_workers=%d", chaosSeed, workers), func(t *testing.T) {
				ccfg := cfg
				ccfg.Chaos = chaosFor(chaosSeed, cfg.Nodes)
				c, err := cluster.Launch(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := c.Close(); err != nil {
						t.Errorf("close cluster: %v", err)
					}
				}()
				if err := c.Inject(msgs); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Replay(tr, from, horizon, workers); err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(c.Deliveries(msgs)); d != "" {
					t.Fatalf("chaos changed the delivered set: %s", d)
				}
				if gotStats := cluster.Subset(c.TotalStats()); gotStats != wantStats {
					t.Fatalf("chaos changed conserved stats: cluster %+v, reference %+v", gotStats, wantStats)
				}
				if rep := invariant.Check(c, spec); !rep.Clean() {
					t.Fatalf("invariants violated under chaos: %v", rep.Err())
				}
			})
		}
	}
}
