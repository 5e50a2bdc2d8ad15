package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"time"
)

// Profiles holds the standard profiling flag values shared by the
// commands (-cpuprofile, -memprofile, -trace).
type Profiles struct {
	CPU   string
	Mem   string
	Trace string

	cpuFile   *os.File
	traceFile *os.File
}

// Start begins CPU profiling and execution tracing as requested. On
// error, anything already started is stopped.
func (p *Profiles) Start() error {
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return fmt.Errorf("obs: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: start cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err != nil {
			p.stopCPU()
			return fmt.Errorf("obs: create trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			p.stopCPU()
			return fmt.Errorf("obs: start trace: %w", err)
		}
		p.traceFile = f
	}
	return nil
}

func (p *Profiles) stopCPU() {
	if p.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	p.cpuFile.Close()
	p.cpuFile = nil
}

// Stop finalizes every requested profile: stops the CPU profile and
// trace, and writes the heap profile. Safe to call when nothing was
// requested or Start failed.
func (p *Profiles) Stop() error {
	var firstErr error
	p.stopCPU()
	if p.traceFile != nil {
		trace.Stop()
		if err := p.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("obs: close trace: %w", err)
		}
		p.traceFile = nil
	}
	if p.Mem != "" {
		f, err := os.Create(p.Mem)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("obs: create heap profile: %w", err)
			}
		} else {
			runtime.GC() // materialize a settled heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: close heap profile: %w", err)
			}
		}
	}
	return firstErr
}

// Run bundles the whole per-invocation observability lifecycle the
// commands share: -manifest plus the profiling flags. Usage:
//
//	rf := obs.AddRunFlags(fs)
//	... fs.Parse ...
//	run, err := rf.Begin("figures", args)
//	defer run.Abort()
//	... work ...
//	err = run.Finish(cfg, seed, workers, faultRate)
type RunFlags struct {
	ManifestPath string
	Profiles     *Profiles
}

// AddRunFlags registers -manifest and the profiling flags on fs.
func AddRunFlags(fs *flag.FlagSet) *RunFlags {
	return AddRunFlagsNamed(fs, "trace")
}

// AddRunFlagsNamed is AddRunFlags with a custom name for the
// execution-trace flag, for commands where -trace already means
// something else (dtnsim's contact-trace replay uses -exectrace).
func AddRunFlagsNamed(fs *flag.FlagSet, traceFlag string) *RunFlags {
	p := &Profiles{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.Trace, traceFlag, "", "write a runtime execution trace to this file")
	rf := &RunFlags{Profiles: p}
	fs.StringVar(&rf.ManifestPath, "manifest", "", "write a JSON run manifest (config, seed, git revision, counters, phase timings) to this file")
	return rf
}

// Run is one command invocation's observability session.
type Run struct {
	flags     *RunFlags
	command   string
	args      []string
	startedAt time.Time
	collector *Collector
	finished  bool

	mu     sync.Mutex
	events []RunEvent
}

// RecordEvent appends a supervision event (resume, interruption,
// quarantine) to the manifest being assembled. Safe for concurrent
// use; a no-op when no manifest was requested.
func (r *Run) RecordEvent(ev RunEvent) {
	if r == nil || r.collector == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Begin starts profiling and, when a manifest was requested, installs
// a fresh process-wide collector.
func (rf *RunFlags) Begin(command string, args []string) (*Run, error) {
	if err := rf.Profiles.Start(); err != nil {
		return nil, err
	}
	r := &Run{flags: rf, command: command, args: args, startedAt: time.Now()}
	if rf.ManifestPath != "" {
		r.collector = NewCollector()
		Install(r.collector)
	}
	return r, nil
}

// Finish stops profiling, uninstalls the collector, and writes the
// manifest if one was requested. The config block, seed, workers, and
// fault rate describe the scenario the command ran.
func (r *Run) Finish(config any, seed uint64, workers int, faultRate float64) error {
	r.finished = true
	profErr := r.flags.Profiles.Stop()
	if r.collector == nil {
		return profErr
	}
	Install(nil)
	m := BuildManifest(r.collector, r.command, r.args, r.startedAt)
	m.Config = config
	m.Seed = seed
	m.Workers = workers
	m.FaultRate = faultRate
	r.mu.Lock()
	m.Events = append([]RunEvent(nil), r.events...)
	r.mu.Unlock()
	if err := m.WriteFile(r.flags.ManifestPath); err != nil {
		return err
	}
	return profErr
}

// Abort releases profiling and the collector without writing a
// manifest. A no-op after Finish; intended for defer on error paths.
func (r *Run) Abort() {
	if r.finished {
		return
	}
	r.finished = true
	_ = r.flags.Profiles.Stop()
	if r.collector != nil {
		Install(nil)
	}
}
