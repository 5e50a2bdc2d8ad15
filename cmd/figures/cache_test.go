package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// cacheOpt mirrors the Options run() builds from the cache tests' CLI
// flags, so a test can derive the same content key the CLI will.
func cacheOpt(seed uint64, securityRuns int) experiment.Options {
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

// TestHeldCacheEntryFails pins the one-writer rule end to end: while
// another store holds fig06's cache entry, a figures run on the same
// -cache fails at once, naming the entry, and computes nothing; once
// the holder closes, the same command runs and its artifacts are
// byte-identical to a cacheless run.
func TestHeldCacheEntryFails(t *testing.T) {
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

	spec := fig06Spec(t)
	opt := cacheOpt(1, securityRuns)
	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir, outDir := t.TempDir(), t.TempDir()
	holder, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-out", outDir, "-cache", cacheDir}, base...)
	err = run(args, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "in use") || !strings.Contains(err.Error(), key) {
		t.Fatalf("run on a held entry: err = %v; want an in-use error naming %s", err, key)
	}
	if holder.Loaded() != 0 {
		t.Fatal("the refused run wrote to the held entry")
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(args, os.Stdout); err != nil {
		t.Fatalf("run after the holder closed: %v", err)
	}
	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) || !bytes.Equal(gotJSON, goldenJSON) {
		t.Error("cached artifacts differ from the cacheless golden")
	}
}

// TestFleetKillResumeByteIdentical is the crash-safety acceptance
// test over a fleet of kill-and-rerun cells: a -cache run SIGKILLed at
// a seeded random point — leaving a torn log tail — and rerun with the
// same flags produces artifacts byte-identical to an uninterrupted
// cacheless run, across seeds and worker counts (the rerun uses a
// different -workers value than the killed run). The kernel dropped
// the killed run's lock on its entry, so the rerun takes it at once.
// No -resume flag: the cache resumes implicitly.
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
					killAndRerun(t, seed, workers, workers%4+1, &midRunKills)
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

// TestKillResumeByteIdentical is the plain kill-and-rerun: the rerun
// repeats the killed command exactly, worker count included, and its
// artifacts are byte-identical to an uninterrupted cacheless run.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	var midRunKills int64
	killAndRerun(t, 7, 4, 4, &midRunKills)
}

// killAndRerun SIGKILLs a -cache run with the given seed and worker
// count, reruns it at rerunWorkers and byte-compares the artifacts
// with a cacheless golden. A kill that landed mid-run bumps
// midRunKills.
func killAndRerun(t *testing.T, seed uint64, workers, rerunWorkers int, midRunKills *int64) {
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
	persist := []string{"-out", outDir, "-cache", cacheDir}
	rnd := rand.New(rand.NewSource(int64(seed)*31 + int64(workers)))
	delay := 150*time.Millisecond + time.Duration(rnd.Int63n(int64(600*time.Millisecond)))
	victim, _ := figuresCmd(t, append(persist, withWorkers(workers)...))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(delay)
	_ = victim.Process.Kill() // SIGKILL: no close, no unlock
	if err := victim.Wait(); err != nil {
		atomic.AddInt64(midRunKills, 1)
	} else {
		t.Logf("run finished in under %v; rerun will replay a complete cache", delay)
	}

	rerun, stderr := figuresCmd(t, append(persist, withWorkers(rerunWorkers)...))
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
