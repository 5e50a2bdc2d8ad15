package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

func writeManifest(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.json")
	rf := &obs.RunFlags{ManifestPath: path, Profiles: &obs.Profiles{}}
	run, err := rf.Begin("obscheck-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	obs.Active().Add(obs.RoutingContacts, 3)
	if err := run.Finish(map[string]int{"n": 1}, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestObscheckAcceptsValidManifest(t *testing.T) {
	path := writeManifest(t)
	if err := run([]string{"-counters", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// writeChaosManifest builds a manifest as a chaos or chaos-free run
// would, with the given totals in the turbulence/self-healing families.
func writeChaosManifest(t *testing.T, args []string, injected, blackouts, retries, opens int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.json")
	col := obs.NewCollector()
	col.Add(obs.ChaosInjected, injected)
	col.Add(obs.ChaosBlackouts, blackouts)
	col.Add(obs.RetryAttempts, retries)
	col.Add(obs.BreakerOpens, opens)
	m := obs.BuildManifest(col, "dtnload", args, time.Now())
	m.Seed, m.Workers = 1, 1
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestObscheckChaosFamilies: the chaos/retry counter families must be
// consistent with the recorded invocation — nonzero under -chaos, zero
// without it.
func TestObscheckChaosFamilies(t *testing.T) {
	chaosArgs := []string{"-mode", "cluster", "-chaos", "-chaos-seed", "42"}
	cleanArgs := []string{"-mode", "cluster"}

	// A real chaos run and a real clean run both validate.
	if err := run([]string{writeChaosManifest(t, chaosArgs, 10, 1, 5, 2)}, os.Stdout); err != nil {
		t.Fatalf("consistent chaos manifest rejected: %v", err)
	}
	if err := run([]string{writeChaosManifest(t, cleanArgs, 0, 0, 0, 0)}, os.Stdout); err != nil {
		t.Fatalf("consistent chaos-free manifest rejected: %v", err)
	}

	// A chaos run in which any family stayed silent did not exercise
	// the layer it claims to have run under.
	for _, m := range []string{
		writeChaosManifest(t, chaosArgs, 0, 1, 5, 2),
		writeChaosManifest(t, chaosArgs, 10, 0, 5, 2),
		writeChaosManifest(t, chaosArgs, 10, 1, 0, 2),
		writeChaosManifest(t, chaosArgs, 10, 1, 5, 0),
	} {
		if err := run([]string{m}, os.Stdout); err == nil || !strings.Contains(err.Error(), "want nonzero") {
			t.Errorf("silent chaos family accepted: %v", err)
		}
	}
	// Turbulence leaking into a chaos-free run is equally a lie.
	if err := run([]string{writeChaosManifest(t, cleanArgs, 3, 0, 0, 0)}, os.Stdout); err == nil || !strings.Contains(err.Error(), "want 0") {
		t.Errorf("chaos-free manifest with injected faults accepted: %v", err)
	}
}

func TestObscheckRejectsCorruptManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"version": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, os.Stdout); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if err := run(nil, os.Stdout); err == nil {
		t.Fatal("missing argument accepted")
	}
}

// synthCache builds a cache directory with one registry-referenced
// entry, one sweep entry, and one orphan.
func synthCache(t *testing.T) (dir string, orphanKey string) {
	t.Helper()
	dir = t.TempDir()
	mk := func(salt, spec string, trials int) string {
		sum := sha256.Sum256([]byte(salt))
		key := hex.EncodeToString(sum[:])
		s, err := resultcache.Open(dir, key, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trials; i++ {
			if err := s.Save("b", i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return key
	}
	mk("a", experiment.FigureSpecs()[0].ID, 3)
	mk("b", "sweep-g", 2)
	orphanKey = mk("c", "renamed-away-spec", 4)
	return dir, orphanKey
}

func TestObscheckCacheList(t *testing.T) {
	dir, _ := synthCache(t)
	outPath := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cache", dir}, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{experiment.FigureSpecs()[0].ID, "sweep-g", "renamed-away-spec", "3 entries"} {
		if !strings.Contains(text, want) {
			t.Fatalf("listing missing %q:\n%s", want, text)
		}
	}
}

func TestObscheckCacheGC(t *testing.T) {
	dir, orphanKey := synthCache(t)
	outPath := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cache", dir, "-gc"}, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1 entries pruned") {
		t.Fatalf("GC output:\n%s", data)
	}
	if _, err := os.Stat(filepath.Join(dir, orphanKey)); !os.IsNotExist(err) {
		t.Fatal("orphan entry survived GC")
	}
	infos, err := resultcache.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("after GC, %d entries; want 2", len(infos))
	}
}

func TestObscheckCacheFlagValidation(t *testing.T) {
	if err := run([]string{"-gc"}, os.Stdout); err == nil {
		t.Fatal("-gc without -cache accepted")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cache", file}, os.Stdout); err == nil {
		t.Fatal("-cache pointing at a regular file accepted")
	}
	if err := run([]string{"-cache", filepath.Join(t.TempDir(), "absent")}, os.Stdout); err == nil {
		t.Fatal("-cache pointing at a missing directory accepted")
	}
}
