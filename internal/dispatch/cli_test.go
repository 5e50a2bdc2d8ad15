package dispatch

import (
	"errors"
	"flag"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// newSession parses args through AddFlags and starts a session whose
// obs.Run writes a manifest; finish writes it and returns its events.
func newSession(t *testing.T, args ...string) (sess *Session, finish func() []obs.RunEvent) {
	t.Helper()
	fs := flag.NewFlagSet("session-test", flag.ContinueOnError)
	bf := AddFlags(fs)
	rf := obs.AddRunFlags(fs)
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	if err := fs.Parse(append(args, "-manifest", manifest)); err != nil {
		t.Fatal(err)
	}
	if err := bf.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := rf.Begin("session-test", args)
	if err != nil {
		t.Fatal(err)
	}
	sess = bf.Start("session-test", run)
	t.Cleanup(func() {
		sess.Stop()
		run.Abort()
	})
	return sess, func() []obs.RunEvent {
		t.Helper()
		if err := run.Finish(struct{}{}, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obs.ValidateManifestBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		return m.Events
	}
}

func eventsOfKind(evs []obs.RunEvent, kind string) []obs.RunEvent {
	var out []obs.RunEvent
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestSessionFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	bf := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if bf.TrialTimeout != 0 || bf.Cache != "" {
		t.Fatalf("defaults = %+v", *bf)
	}
}

func TestSessionOpenWithoutCacheIsNil(t *testing.T) {
	sess, _ := newSession(t)
	store, err := sess.Open(contentKey(t, "nocache"), "spec", 1)
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		t.Fatalf("Open without -cache returned a store")
	}
	if err := store.Close(); err != nil { // must be callable
		t.Fatal(err)
	}
}

func TestSessionReopenRecordsResumed(t *testing.T) {
	sess, finish := newSession(t, "-cache", t.TempDir())
	key := contentKey(t, "resume")
	for pass := 0; pass < 2; pass++ {
		store, err := sess.Open(key, "spec-r", 1)
		if err != nil {
			t.Fatal(err)
		}
		if store == nil {
			t.Fatal("Open with -cache returned no store")
		}
		half := func(i int) (float64, error) { return float64(i) * 0.5, nil }
		if _, err := Run(store, sess.Sup, "spec-r/b", 2, 10, half); err != nil {
			t.Fatal(err)
		}
		store.Close()
	}
	if err := sess.Finish(nil); err != nil {
		t.Fatal(err)
	}
	resumed := eventsOfKind(finish(), obs.EventResumed)
	if len(resumed) != 1 {
		t.Fatalf("resumed events = %+v; want exactly one (second Open)", resumed)
	}
	if want := "spec-r: 10 trials from cache entry " + key[:12]; resumed[0].Detail != want {
		t.Fatalf("resumed detail = %q; want %q", resumed[0].Detail, want)
	}
}

func TestSessionQuarantineDetailIsOneLine(t *testing.T) {
	sess, finish := newSession(t)
	_, err := Run(nil, sess.Sup, "boom", 2, 6, func(i int) (int, error) {
		if i == 3 {
			panic("injected session panic")
		}
		return i, nil
	})
	var qe *runner.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v; want a QuarantineError", err)
	}
	if got := sess.Finish(err); got != err {
		t.Fatalf("Finish changed a non-interrupt error: %v", got)
	}
	q := eventsOfKind(finish(), obs.EventTrialQuarantined)
	if len(q) != 1 {
		t.Fatalf("quarantine events = %+v; want exactly one", q)
	}
	ev := q[0]
	if ev.Batch != "boom" || ev.Trial != 3 {
		t.Fatalf("quarantine event names %q trial %d; want boom trial 3", ev.Batch, ev.Trial)
	}
	if strings.Contains(ev.Detail, "\n") || !strings.Contains(ev.Detail, "injected session panic") {
		t.Fatalf("quarantine detail = %q; want the panic's first line only", ev.Detail)
	}
}

func TestSessionInterruptHint(t *testing.T) {
	for _, cached := range []bool{true, false} {
		var args []string
		if cached {
			args = []string{"-cache", t.TempDir()}
		}
		sess, _ := newSession(t, args...)
		store, err := sess.Open(contentKey(t, "interrupt"), "spec-i", 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(store, sess.Sup, "spec-i/b", 1, 200, func(i int) (int, error) {
			if i == 40 {
				sess.Sup.Stop()
			}
			return i, nil
		})
		store.Close()
		if !errors.Is(err, runner.ErrInterrupted) {
			t.Fatalf("cached=%v: batch err = %v; want ErrInterrupted", cached, err)
		}
		got := sess.Finish(err)
		if !errors.Is(got, runner.ErrInterrupted) {
			t.Fatalf("cached=%v: Finish lost ErrInterrupted: %v", cached, got)
		}
		hinted := strings.HasSuffix(got.Error(), "; rerun with the same -cache to continue")
		if hinted != cached {
			t.Fatalf("cached=%v: Finish err = %q; hint present = %v", cached, got, hinted)
		}
	}
}

func TestSessionSignalDrains(t *testing.T) {
	guard := make(chan os.Signal, 16)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)
	sess, finish := newSession(t)
	deadline := time.Now().Add(5 * time.Second)
	for !sess.Sup.Stopping() {
		if time.Now().After(deadline) {
			t.Fatal("SIGINT did not stop the supervisor")
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sess.Stop()
	sess.Stop() // idempotent
	intr := eventsOfKind(finish(), obs.EventInterrupted)
	if len(intr) != 1 || intr[0].Detail != "interrupt" {
		t.Fatalf("interrupted events = %+v; want one naming the signal", intr)
	}
}
