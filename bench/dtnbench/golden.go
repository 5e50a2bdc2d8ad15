package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sort"
)

// The golden file pins, per workload and seed at benchmark size, the
// exact counts of a round (and the sha256 of every figure's JSON). A run
// at a pinned seed fails unless its first round reproduces them.

//go:embed testdata/golden.json
var embeddedGolden []byte

type goldenEntry struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Scale    float64           `json:"scale"`
	Counts   map[string]int64  `json:"counts"`
	SHA256   map[string]string `json:"sha256,omitempty"`
}

type golden []goldenEntry

// loadGolden reads the golden file at path, or the embedded one.
func loadGolden(path string) (golden, error) {
	data := embeddedGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

func (g golden) find(workload string, cfg config) int {
	for i, e := range g {
		if e.Workload == workload && e.Seed == cfg.seed && e.Scale == cfg.scale {
			return i
		}
	}
	return -1
}

// check compares a round with the pinned entry, if there is one.
func (g golden) check(workload string, cfg config, r *result) []string {
	i := g.find(workload, cfg)
	if i < 0 {
		return nil
	}
	e := g[i]
	var problems []string
	if !reflect.DeepEqual(e.Counts, r.counts) {
		problems = append(problems, fmt.Sprintf("counts differ from the golden file: got%s, want%s", formatMap(r.counts), formatMap(e.Counts)))
	}
	for id, want := range e.SHA256 {
		if got := r.hashes[id]; got != want {
			problems = append(problems, fmt.Sprintf("%s JSON sha256 %s, golden %s", id, got, want))
		}
	}
	if len(r.hashes) != len(e.SHA256) {
		problems = append(problems, fmt.Sprintf("%d figure digests, golden has %d", len(r.hashes), len(e.SHA256)))
	}
	return problems
}

// recordGolden writes a round's counts into the golden file at path,
// replacing any entry for the same workload, seed and scale.
func recordGolden(path, workload string, cfg config, r *result) error {
	var g golden
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("golden file: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	e := goldenEntry{Workload: workload, Seed: cfg.seed, Scale: cfg.scale, Counts: r.counts, SHA256: r.hashes}
	if i := g.find(workload, cfg); i >= 0 {
		g[i] = e
	} else {
		g = append(g, e)
	}
	sort.Slice(g, func(i, j int) bool {
		if g[i].Workload != g[j].Workload {
			return g[i].Workload < g[j].Workload
		}
		if g[i].Seed != g[j].Seed {
			return g[i].Seed < g[j].Seed
		}
		return g[i].Scale < g[j].Scale
	})
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
