package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The tests run every workload at a small fraction of benchmark size
// with one round per mode, so the whole file takes a few seconds.
const tinyScale = 0.02

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastJSON parses the result line a run prints last.
func lastJSON(t *testing.T, out string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return o
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestWorkloads runs each workload untraced and traced. Every metric of
// BENCHMARK.json must be printed with its unit, tracing must not change
// any exact count, and each traced round's ledger must add up to its
// wall.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
				var out bytes.Buffer
				rep, err := bench(w, options{workload: w.name, seed: 3, scale: tinyScale, trace: trace}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.out.Correct || rep.out.Failed != 0 || rep.out.Attempted < 1 {
					t.Fatalf("trace=%d: correct=%v attempted=%d failed=%d\n%s", trace, rep.out.Correct, rep.out.Attempted, rep.out.Failed, out.String())
				}
				if len(rep.out.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics, BENCHMARK.json lists %d", trace, len(rep.out.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := rep.out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				if trace == 0 {
					for _, m := range want {
						if rep.out.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.out.Metrics[m.Name].Value)
						}
					}
					continue
				}
				if len(rep.rounds) != 2 || rep.rounds[0].traced || !rep.rounds[1].traced {
					t.Fatalf("want one untraced then one traced round, got %d rounds", len(rep.rounds))
				}
				if !reflect.DeepEqual(rep.rounds[0].counts, rep.rounds[1].counts) || !reflect.DeepEqual(rep.rounds[0].hashes, rep.rounds[1].hashes) {
					t.Errorf("tracing changed the counts: %v vs %v", rep.rounds[0].counts, rep.rounds[1].counts)
				}
				l := rep.rounds[1].ledger
				sum := l.residual
				for _, name := range layers {
					if l.self[name] < 0 {
						t.Errorf("layer %s self time %d < 0", name, l.self[name])
					}
					sum += l.self[name]
				}
				if sum != l.wall || l.residual < 0 || l.wall != int64(rep.rounds[1].wall) {
					t.Errorf("ledger does not reconcile: layers+residual=%d, wall=%d, round wall=%d, residual=%d", sum, l.wall, rep.rounds[1].wall, l.residual)
				}
			}
		})
	}
}

func TestGoldenFilePinsEveryWorkload(t *testing.T) {
	g, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 42} {
			if g.find(w.name, config{seed: seed, scale: 1}) < 0 {
				t.Errorf("testdata/golden.json has no entry for %s at seed %d", w.name, seed)
			}
		}
	}
}

// TestCorruptedGoldenFails records a golden entry, checks a run passes
// against it, then corrupts one count and expects the run to fail.
func TestCorruptedGoldenFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	args := []string{"-workload", "sim-backlog", "-seed", "5", "-seconds", "0", "-scale", "0.02"}
	var out, errOut bytes.Buffer
	if code := run(append(args, "-record-golden", path), &out, &errOut); code != 0 {
		t.Fatalf("recording exited %d: %s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run(append(args, "-golden", path), &out, &errOut); code != 0 || !lastJSON(t, out.String()).Correct {
		t.Fatalf("run against its own golden exited %d: %s%s", code, out.String(), errOut.String())
	}

	g, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	g[0].Counts["delivered"]++
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code := run(append(args, "-golden", path), &out, &errOut)
	if res := lastJSON(t, out.String()); code == 0 || res.Correct {
		t.Fatalf("corrupted golden: exit %d, correct=%v\n%s", code, res.Correct, out.String())
	}
	if !strings.Contains(out.String(), "FAIL: counts differ from the golden file") {
		t.Errorf("the failure is not reported:\n%s", out.String())
	}
}
