package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// fleetOpt mirrors the Options run() builds from the fleet test's CLI
// flags, so the test can derive the same content key the CLI will.
func fleetOpt(seed uint64, securityRuns int) experiment.Options {
	opt := experiment.DefaultOptions()
	opt.Seed = seed
	opt.SecurityRuns = securityRuns
	return opt
}

// fig06Spec fetches the registry's fig06 spec (security-point: cheap,
// fully synthetic).
func fig06Spec(t *testing.T) scenario.Scenario {
	t.Helper()
	for _, s := range experiment.FigureSpecs() {
		if s.ID == "fig06" {
			return s
		}
	}
	t.Fatal("fig06 missing from the registry")
	return scenario.Scenario{}
}

// readArtifacts returns fig06's CSV and JSON bytes from an output dir.
func readArtifacts(t *testing.T, dir string) ([]byte, []byte) {
	t.Helper()
	csv, err := os.ReadFile(filepath.Join(dir, "fig06.csv"))
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join(dir, "fig06.json"))
	if err != nil {
		t.Fatal(err)
	}
	return csv, js
}

// TestFleetStaleLeaseStolen pins the steal-back path end to end: a
// lease abandoned by a dead worker (forged here with an ancient mtime)
// is stolen by the next run, the chunk recomputes, and the artifacts
// are byte-identical to a cacheless run. The manifest's
// dispatch.steals counter proves the steal actually happened.
func TestFleetStaleLeaseStolen(t *testing.T) {
	const securityRuns = 300
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-security-runs", fmt.Sprint(securityRuns), "-seed", "1",
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	// Forge the dead worker's droppings: the cache entry the run will
	// address, holding a stale lease on the first chunk of the first
	// security batch.
	spec := fig06Spec(t)
	opt := fleetOpt(1, securityRuns)
	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	store, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed, "dead-worker")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("fig06/security/s0/x0"))
	lease := filepath.Join(store.LeaseDir(), fmt.Sprintf("%x-0.lease", sum[:8]))
	if err := os.WriteFile(lease, []byte("dead-worker\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ancient := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(lease, ancient, ancient); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	outDir := t.TempDir()
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	args := append([]string{
		"-out", outDir, "-cache", cacheDir, "-manifest", manifest,
	}, base...)
	if err := run(args, os.Stdout); err != nil {
		t.Fatal(err)
	}

	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) {
		t.Error("post-steal CSV differs from the cacheless golden")
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Error("post-steal JSON differs from the cacheless golden")
	}
	if _, err := os.Stat(lease); !os.IsNotExist(err) {
		t.Errorf("stale lease still present after the run (stat err = %v)", err)
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var steals, leases int64 = -1, -1
	for _, c := range m.Counters {
		switch c.Name {
		case "dispatch.steals":
			steals = c.Value
		case "dispatch.leases":
			leases = c.Value
		}
	}
	if steals < 1 {
		t.Errorf("dispatch.steals = %d, want >= 1 (the forged stale lease)", steals)
	}
	if leases < 1 {
		t.Errorf("dispatch.leases = %d, want >= 1", leases)
	}
}

// TestFleetKillResumeByteIdentical is the crash-safety acceptance
// test: a -cache run SIGKILLed at a seeded random point — leaving a
// torn shard tail and orphaned leases — and rerun with the same flags
// produces artifacts byte-identical to an uninterrupted cacheless run,
// across seeds and worker counts (the rerun uses a different -workers
// value than the killed run). The worker name is fixed and the lease
// TTL is the default, so the rerun must reclaim its predecessor's
// leases at once rather than wait the TTL out. No -resume flag: the
// cache resumes implicitly.
func TestFleetKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	var midRunKills int64
	for _, seed := range []uint64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				workers := workers
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					t.Parallel()
					killAndRerun(t, seed, workers, &midRunKills)
				})
			}
		})
	}
	t.Cleanup(func() {
		if !t.Failed() && atomic.LoadInt64(&midRunKills) == 0 {
			t.Error("no subprocess was killed mid-run; the kill window no longer overlaps the run — retune the delays")
		}
	})
}

// killAndRerun is one cell of TestFleetKillResumeByteIdentical.
func killAndRerun(t *testing.T, seed uint64, workers int, midRunKills *int64) {
	withWorkers := func(w int) []string {
		return []string{
			"-fig", "fig06", "-no-plot", "-json",
			"-runs", "40", "-security-runs", "4000", "-trace-runs", "5",
			"-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(w),
		}
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, withWorkers(workers)...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	outDir, cacheDir := t.TempDir(), t.TempDir()
	persist := []string{"-out", outDir, "-cache", cacheDir, "-fleet-id", "kill-test"}
	rnd := rand.New(rand.NewSource(int64(seed)*31 + int64(workers)))
	delay := 150*time.Millisecond + time.Duration(rnd.Int63n(int64(600*time.Millisecond)))
	victim, _ := figuresCmd(t, append(persist, withWorkers(workers)...))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(delay)
	_ = victim.Process.Kill() // SIGKILL: no lease release, no shard close
	if err := victim.Wait(); err != nil {
		atomic.AddInt64(midRunKills, 1)
	} else {
		t.Logf("run finished in under %v; rerun will replay a complete cache", delay)
	}

	// A rerun that waited for the killed process's lease to go stale
	// could not finish before the oldest orphan reached the default
	// 30s TTL; reclaiming it at once finishes well before that.
	waitFloor := time.Duration(1<<63 - 1)
	orphans, err := filepath.Glob(filepath.Join(cacheDir, "*", "leases", "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range orphans {
		if st, err := os.Stat(l); err == nil {
			if floor := 30*time.Second - time.Since(st.ModTime()); floor < waitFloor {
				waitFloor = floor
			}
		}
	}
	start := time.Now()
	rerun, stderr := figuresCmd(t, append(persist, withWorkers(workers%4+1)...))
	if err := rerun.Run(); err != nil {
		t.Fatalf("cache rerun failed: %v\n%s", err, stderr.String())
	}
	if took := time.Since(start); took >= waitFloor {
		t.Errorf("rerun took %v with %d orphaned lease(s); own leases were not reclaimed at once", took, len(orphans))
	}
	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) {
		t.Errorf("cache-resumed CSV differs from uninterrupted golden (%d vs %d bytes)", len(gotCSV), len(goldenCSV))
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Errorf("cache-resumed JSON differs from uninterrupted golden (%d vs %d bytes)", len(gotJSON), len(goldenJSON))
	}
	for _, dir := range []string{outDir, filepath.Join(cacheDir, "*")} {
		if left := tmpDroppings(t, dir); len(left) != 0 {
			t.Fatalf("kill and rerun left temp artifacts: %v", left)
		}
	}
}

// TestKillResumeByteIdentical is the kill-and-rerun with default
// worker names: without -fleet-id the killed run and its rerun are
// different workers (hostname-pid), so the rerun cannot reclaim the
// dead run's leases as its own and must steal them once they outlive
// -lease-ttl. A rerun that never stole them would never finish. With
// a short TTL it finishes, and its artifacts are byte-identical to an
// uninterrupted cacheless run.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-runs", "40", "-security-runs", "4000", "-trace-runs", "5",
		"-seed", "7", "-workers", "4",
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	outDir, cacheDir := t.TempDir(), t.TempDir()
	persist := []string{"-out", outDir, "-cache", cacheDir, "-lease-ttl", "2s"}
	victim, _ := figuresCmd(t, append(persist, base...))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	_ = victim.Process.Kill() // SIGKILL: no lease release, no shard close
	if err := victim.Wait(); err == nil {
		t.Log("run finished before the kill; rerun will replay a complete cache")
	}

	rerun, stderr := figuresCmd(t, append(persist, base...))
	if err := rerun.Run(); err != nil {
		t.Fatalf("cache rerun failed: %v\n%s", err, stderr.String())
	}
	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) {
		t.Errorf("cache-resumed CSV differs from uninterrupted golden (%d vs %d bytes)", len(gotCSV), len(goldenCSV))
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Errorf("cache-resumed JSON differs from uninterrupted golden (%d vs %d bytes)", len(gotJSON), len(goldenJSON))
	}
	for _, dir := range []string{outDir, filepath.Join(cacheDir, "*")} {
		if left := tmpDroppings(t, dir); len(left) != 0 {
			t.Fatalf("kill and rerun left temp artifacts: %v", left)
		}
	}
}

// TestFleetTwoProcessByteIdentical runs two concurrent CLI processes
// against one shared cache directory — the worked fleet example from
// the README — and requires both to emit artifacts byte-identical to
// a single cacheless process. Re-exec gives each process its own pid
// and therefore its own default fleet ID and shard.
func TestFleetTwoProcessByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-runs", "40", "-security-runs", "2000", "-trace-runs", "5",
		"-seed", "1", "-workers", "2",
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	cacheDir := t.TempDir()
	outA, outB := t.TempDir(), t.TempDir()
	procA, errA := figuresCmd(t, append([]string{"-out", outA, "-cache", cacheDir}, base...))
	procB, errB := figuresCmd(t, append([]string{"-out", outB, "-cache", cacheDir}, base...))
	if err := procA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := procB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := procA.Wait(); err != nil {
		t.Fatalf("worker A failed: %v\n%s", err, errA.String())
	}
	if err := procB.Wait(); err != nil {
		t.Fatalf("worker B failed: %v\n%s", err, errB.String())
	}
	for name, dir := range map[string]string{"A": outA, "B": outB} {
		csv, js := readArtifacts(t, dir)
		if !bytes.Equal(csv, goldenCSV) {
			t.Errorf("worker %s CSV differs from the single-process golden", name)
		}
		if !bytes.Equal(js, goldenJSON) {
			t.Errorf("worker %s JSON differs from the single-process golden", name)
		}
	}
}
