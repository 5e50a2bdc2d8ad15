package obs

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/atomicio"
)

// ManifestVersion identifies the manifest schema. Bump it when a
// required field is added or changes meaning.
const ManifestVersion = 1

// Manifest is the audit record one command invocation emits via
// -manifest: everything needed to trace a reported number back to the
// exact configuration, seed, code revision, and event totals that
// produced it. Counters, histograms, and phases are emitted as ordered
// slices, never maps, so two identical runs serialize identically
// (modulo wall-clock fields).
type Manifest struct {
	Version     int       `json:"version"`
	Command     string    `json:"command"`        // e.g. "figures"
	Args        []string  `json:"args,omitempty"` // raw CLI args as invoked
	GitRevision string    `json:"gitRevision"`
	GoVersion   string    `json:"goVersion"`
	StartedAt   time.Time `json:"startedAt"`
	WallSeconds float64   `json:"wallSeconds"`

	// Scenario identity.
	Config    any     `json:"config,omitempty"` // command-specific config block
	Seed      uint64  `json:"seed"`
	Workers   int     `json:"workers"` // 0 = GOMAXPROCS
	FaultRate float64 `json:"faultRate"`

	// Run totals.
	Counters          []CounterTotal      `json:"counters"`
	Histograms        []HistogramSnapshot `json:"histograms,omitempty"`
	Phases            []PhaseTiming       `json:"phases,omitempty"`
	WorkerUtilization float64             `json:"workerUtilization,omitempty"`

	// Events record run-supervision incidents — cache resumes,
	// drain requests, quarantined trials — in occurrence order. Optional:
	// absent on clean unsupervised runs, so no version bump.
	Events []RunEvent `json:"events,omitempty"`
}

// Run-supervision event kinds.
const (
	// EventResumed: the run found completed trials in its result cache.
	EventResumed = "resumed"
	// EventInterrupted: a drain (SIGINT/SIGTERM) stopped the run before
	// every trial completed.
	EventInterrupted = "interrupted"
	// EventTrialQuarantined: a panicking or hung trial was isolated;
	// the remaining trials continued.
	EventTrialQuarantined = "trial-quarantined"
)

// RunEvent is one supervision incident.
type RunEvent struct {
	Kind string `json:"kind"`
	// Detail identifies the subject: the cache entry for resumed,
	// the batch and trial index for quarantines.
	Detail string `json:"detail,omitempty"`
	// Batch/Trial pinpoint a quarantined trial.
	Batch string `json:"batch,omitempty"`
	Trial int    `json:"trial,omitempty"`
}

// BuildManifest assembles a manifest from a collector snapshot.
func BuildManifest(c *Collector, command string, args []string, startedAt time.Time) *Manifest {
	m := &Manifest{
		Version:     ManifestVersion,
		Command:     command,
		Args:        args,
		GitRevision: GitRevision(),
		GoVersion:   runtime.Version(),
		StartedAt:   startedAt,
		WallSeconds: time.Since(startedAt).Seconds(),
		Counters:    c.Counters(),
		Histograms:  c.Histograms(),
		Phases:      c.Phases(),
	}
	if capacity := c.Get(ExpBatchCapacityNanos); capacity > 0 {
		m.WorkerUtilization = float64(c.Get(ExpTrialBusyNanos)) / float64(capacity)
	}
	return m
}

// JSON renders the manifest as indented JSON with a trailing newline.
func (m *Manifest) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return append(out, '\n'), nil
}

// WriteFile validates the manifest and writes it to path atomically,
// so a killed process never leaves a truncated manifest that parses.
func (m *Manifest) WriteFile(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := m.JSON()
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// Validate checks the manifest against the schema: required fields
// present, counter set complete and in declaration order.
func (m *Manifest) Validate() error {
	switch {
	case m.Version != ManifestVersion:
		return fmt.Errorf("obs: manifest version %d, want %d", m.Version, ManifestVersion)
	case m.Command == "":
		return fmt.Errorf("obs: manifest missing command")
	case m.GitRevision == "":
		return fmt.Errorf("obs: manifest missing git revision")
	case m.GoVersion == "":
		return fmt.Errorf("obs: manifest missing go version")
	case m.StartedAt.IsZero():
		return fmt.Errorf("obs: manifest missing start time")
	case len(m.Counters) != int(numCounters):
		return fmt.Errorf("obs: manifest has %d counters, want %d", len(m.Counters), numCounters)
	}
	for i, ct := range m.Counters {
		if ct.Name != counterNames[i] {
			return fmt.Errorf("obs: manifest counter %d is %q, want %q", i, ct.Name, counterNames[i])
		}
		if ct.Value < 0 {
			return fmt.Errorf("obs: manifest counter %q is negative: %d", ct.Name, ct.Value)
		}
	}
	for _, p := range m.Phases {
		if p.Name == "" || p.Count <= 0 || p.Seconds < 0 {
			return fmt.Errorf("obs: manifest phase %+v invalid", p)
		}
	}
	for _, ev := range m.Events {
		if ev.Kind == "" {
			return fmt.Errorf("obs: manifest event %+v missing kind", ev)
		}
	}
	return nil
}

// ValidateManifestBytes parses and validates a serialized manifest.
func ValidateManifestBytes(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Counter returns the value of the named counter, or false if the
// manifest does not carry it.
func (m *Manifest) Counter(name string) (int64, bool) {
	for _, ct := range m.Counters {
		if ct.Name == name {
			return ct.Value, true
		}
	}
	return 0, false
}

// GitRevision returns the VCS revision the binary was built from: the
// revision stamped into the build info when available (go build of a
// checkout), otherwise the HEAD of the working directory's repository
// (go run, go test), otherwise "unknown".
func GitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}
