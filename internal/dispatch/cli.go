package dispatch

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

// Flags are the batch-run flags shared by every command that runs
// Monte Carlo batches (figures, sweep, dtnsim).
type Flags struct {
	TrialTimeout time.Duration
	Cache        string
}

// AddFlags registers -trial-timeout and -cache on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.TrialTimeout, "trial-timeout", 0, "per-trial watchdog: a trial exceeding this is retried once, then quarantined (0 = no watchdog)")
	fs.StringVar(&f.Cache, "cache", "", "content-addressed result cache directory; completed trials persist across interruptions and commits (rerun to resume); one run at a time may use an entry")
	return f
}

// Validate fails on a -cache path occupied by a regular file before
// any computation.
func (f *Flags) Validate() error {
	if f.Cache != "" {
		if err := atomicio.EnsureDir(f.Cache); err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	return nil
}

// Session is one command invocation's batch-run lifecycle: the
// supervisor every batch runs under, the SIGINT/SIGTERM drain, cache
// entries opened with resume reporting, and the quarantine record
// written to the manifest.
type Session struct {
	Sup *runner.Supervisor

	flags   *Flags
	command string
	run     *obs.Run
	stop    func()
}

// Start builds the supervisor and installs the drain: on SIGINT or
// SIGTERM it prints one line to stderr, records EventInterrupted, and
// stops the supervisor, so in-flight trials finish (and, under -cache,
// are saved) and every unfinished batch returns runner.ErrInterrupted.
// Call Stop when the batches are done.
func (f *Flags) Start(command string, run *obs.Run) *Session {
	s := &Session{Sup: runner.NewSupervisor(f.TrialTimeout), flags: f, command: command, run: run}
	sigc, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigc:
			note := ""
			if f.Cache != "" {
				note = " (completed trials are cached)"
			}
			fmt.Fprintf(os.Stderr, "%s: received %v, draining%s\n", command, sig, note)
			run.RecordEvent(obs.RunEvent{Kind: obs.EventInterrupted, Detail: sig.String()})
			s.Sup.Stop()
		case <-done:
		}
	}()
	var once sync.Once
	s.stop = func() { once.Do(func() { signal.Stop(sigc); close(done) }) }
	return s
}

// Stop turns the drain off. Safe to call more than once.
func (s *Session) Stop() { s.stop() }

// Open returns the open cache entry for key, or nil without -cache
// (nil is a valid, no-op store for dispatch.Run and Close). A reopened
// entry that already holds trials is reported on stderr and recorded
// as EventResumed. Close the store once the entry's batches are done.
func (s *Session) Open(key, specID string, seed uint64) (*resultcache.Store, error) {
	if s.flags.Cache == "" {
		return nil, nil
	}
	store, err := resultcache.Open(s.flags.Cache, key, specID, seed)
	if err != nil {
		return nil, err
	}
	if n := store.Loaded(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: %s: cache entry %.12s holds %d completed trials\n", s.command, specID, key, n)
		s.run.RecordEvent(obs.RunEvent{
			Kind:   obs.EventResumed,
			Detail: fmt.Sprintf("%s: %d trials from cache entry %.12s", specID, n, key),
		})
	}
	return store, nil
}

// Finish records every quarantined trial as a manifest event (the
// Detail is the error's first line; panic stacks stay out) and returns
// err, with a resume hint added when a -cache run was interrupted.
// Call it before obs.Run.Finish so the events reach the manifest.
func (s *Session) Finish(err error) error {
	for _, te := range s.Sup.Quarantined() {
		detail, _, _ := strings.Cut(te.Error(), "\n")
		s.run.RecordEvent(obs.RunEvent{
			Kind:   obs.EventTrialQuarantined,
			Detail: detail,
			Batch:  te.Batch,
			Trial:  te.Trial,
		})
	}
	if errors.Is(err, runner.ErrInterrupted) && s.flags.Cache != "" {
		return fmt.Errorf("%w; rerun with the same -cache to continue", err)
	}
	return err
}
