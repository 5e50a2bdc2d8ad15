package main

import (
	"errors"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/trace"
)

// TestInterruptDrainsTrialLoops pins the drain for the trial loops
// that are not onion batches: a SIGINT must stop a baseline run and a
// trace replay with runner.ErrInterrupted within seconds, not let them
// run to completion and exit 0. Each run is sized to take several
// seconds uninterrupted.
func TestInterruptDrainsTrialLoops(t *testing.T) {
	// Our own subscription keeps a SIGINT that arrives while no session
	// is listening from killing the test binary.
	guard := make(chan os.Signal, 16)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	tr, err := trace.GenerateInfocom(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "infocom.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]string{
		"epidemic": {"-protocol", "epidemic", "-n", "100", "-runs", "5000", "-deadline", "600"},
		"trace":    {"-trace", path, "-runs", "30000", "-deadline", "7200"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- run(args, io.Discard) }()
			deadline := time.After(5 * time.Second)
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case err := <-done:
					if !errors.Is(err, runner.ErrInterrupted) {
						t.Fatalf("run returned %v; want %v", err, runner.ErrInterrupted)
					}
					return
				case <-tick.C:
					if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatal("run still going 5s after the first SIGINT")
				}
			}
		})
	}
}
