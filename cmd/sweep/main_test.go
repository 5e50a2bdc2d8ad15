package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSweepGroupSize(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-param", "g", "-values", "1,5", "-n", "40", "-runs", "60", "-deadline", "400"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("output:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[0], "g") {
		t.Fatalf("header: %q", lines[0])
	}
}

func TestSweepEachParameter(t *testing.T) {
	for _, p := range []string{"K", "L", "c", "T"} {
		var buf bytes.Buffer
		values := "1,2"
		if p == "c" {
			values = "0.1,0.3"
		}
		if p == "T" {
			values = "100,500"
		}
		err := run([]string{"-param", p, "-values", values, "-n", "30", "-runs", "30"}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestSweepRejectsFractionalIntegerParams pins the fix for the silent
// int(v) truncation: `-param g -values 2.5` used to run g=2 with no
// diagnostic. Each integer-valued parameter must reject fractional
// values; the float-valued parameters must keep accepting them.
func TestSweepRejectsFractionalIntegerParams(t *testing.T) {
	for _, p := range []string{"g", "K", "L"} {
		var buf bytes.Buffer
		err := run([]string{"-param", p, "-values", "2.5", "-n", "30", "-runs", "10"}, &buf)
		if err == nil {
			t.Errorf("%s: fractional sweep value accepted (would silently truncate)", p)
			continue
		}
		if !strings.Contains(err.Error(), "integer") {
			t.Errorf("%s: error %q does not mention the integer requirement", p, err)
		}
	}
	// Huge values must not wrap when cast to int.
	var buf bytes.Buffer
	if err := run([]string{"-param", "g", "-values", "1e18", "-n", "30", "-runs", "10"}, &buf); err == nil {
		t.Error("out-of-range integer sweep value accepted")
	}
	// Float-valued parameters still accept fractions.
	for _, tc := range []struct{ p, v string }{{"c", "0.15"}, {"T", "250.5"}, {"f", "0.25"}} {
		var buf bytes.Buffer
		if err := run([]string{"-param", tc.p, "-values", tc.v, "-n", "30", "-runs", "10"}, &buf); err != nil {
			t.Errorf("%s=%s rejected: %v", tc.p, tc.v, err)
		}
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-param", "q", "-values", "1"}, &buf); err == nil {
		t.Fatal("accepted unknown parameter")
	}
	if err := run([]string{"-param", "g", "-values", "x"}, &buf); err == nil {
		t.Fatal("accepted unparsable values")
	}
	if err := run([]string{"-param", "g", "-values", ","}, &buf); err == nil {
		t.Fatal("accepted empty values")
	}
	if err := run([]string{"-param", "g", "-values", "0"}, &buf); err == nil {
		t.Fatal("accepted invalid group size")
	}
}

// TestSweepCacheResume pins the crash-safety wiring: a sweep run with
// -cache reruns warm against the same cache — every trial served from
// it, zero cache misses — and prints a byte-identical table, while the
// manifest records the resume.
func TestSweepCacheResume(t *testing.T) {
	args := []string{
		"-param", "g", "-values", "1,5", "-n", "30", "-runs", "10",
		"-cache", t.TempDir(), "-seed", "1",
	}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	var warm bytes.Buffer
	if err := run(append(args, "-manifest", manifest), &warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), warm.Bytes()) {
		t.Fatalf("warm table differs:\n%s\nvs\n%s", warm.String(), first.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range m.Counters {
		counters[c.Name] = c.Value
	}
	if counters["cache.misses"] != 0 || counters["cache.hits"] == 0 {
		t.Fatalf("warm rerun cache.misses = %d, cache.hits = %d; want 0 and > 0",
			counters["cache.misses"], counters["cache.hits"])
	}
	resumed := false
	for _, ev := range m.Events {
		resumed = resumed || ev.Kind == obs.EventResumed
	}
	if !resumed {
		t.Fatalf("manifest events lack the resume: %+v", m.Events)
	}
}
