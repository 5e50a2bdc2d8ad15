package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// execArgsEnv re-execs the test binary as the figures CLI: when set,
// TestMain runs run() with the JSON-decoded args instead of the tests.
// This is how the kill-and-rerun suite gets a real process to SIGKILL.
const execArgsEnv = "FIGURES_EXEC_ARGS"

func TestMain(m *testing.M) {
	if argsJSON := os.Getenv(execArgsEnv); argsJSON != "" {
		var args []string
		if err := json.Unmarshal([]byte(argsJSON), &args); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		if err := run(args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// figuresCmd builds an exec.Cmd that re-runs this test binary as the
// figures CLI with the given arguments.
func figuresCmd(t *testing.T, args []string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	argsJSON, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), execArgsEnv+"="+string(argsJSON))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// tmpDroppings lists atomic-write temp files left in dir — there must
// never be any, whatever happened to the process.
func tmpDroppings(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestCSVWriteFailureLeavesNoPartial pins satellite (b): when the CSV
// write fails mid-run (here: a directory squats on the target path),
// the command errors out without leaving partial or temp files.
func TestCSVWriteFailureLeavesNoPartial(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "fig04.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-fig", "fig04", "-out", dir, "-no-plot",
		"-runs", "10", "-security-runs", "30", "-trace-runs", "5",
	}, os.Stdout)
	if err == nil {
		t.Fatal("run succeeded with an unwritable CSV path")
	}
	if left := tmpDroppings(t, dir); len(left) != 0 {
		t.Fatalf("failed write left temp artifacts: %v", left)
	}
}

// TestQuarantineLandsInManifest pins the acceptance criterion end to
// end: a spec whose trial panics exits nonzero naming the trial, while
// the manifest records the quarantine event and still validates.
func TestQuarantineLandsInManifest(t *testing.T) {
	scenario.RegisterCustom("test-figures-panic", func(e *scenario.Engine, s *scenario.Scenario) ([]stats.Series, []string, error) {
		_, err := scenario.Trials(e, s.ID+"/boom", 6, func(i int) (float64, error) {
			if i == 3 {
				panic("injected figure panic")
			}
			return float64(i), nil
		})
		if err != nil {
			return nil, nil, err
		}
		return []stats.Series{{Name: "x", X: []float64{0}, Y: []float64{0}, CI: []float64{0}}}, nil, nil
	})
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"id": "panic-e2e", "title": "t", "xLabel": "x", "yLabel": "y",
		"measure": {"kind": "custom", "custom": "test-figures-panic"}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	err := run([]string{"-scenario", spec, "-no-plot", "-manifest", manifest}, os.Stdout)
	if err == nil {
		t.Fatal("panicking trial did not fail the run")
	}
	if !strings.Contains(err.Error(), "trial 3") || !strings.Contains(err.Error(), "panic-e2e/boom") {
		t.Fatalf("error does not identify the trial: %v", err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest missing after quarantine: %v", err)
	}
	m, err := obs.ValidateManifestBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range m.Events {
		if ev.Kind == obs.EventTrialQuarantined && ev.Batch == "panic-e2e/boom" && ev.Trial == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest events lack the quarantine: %+v", m.Events)
	}
}
