package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapTrialsPanicNamesTrial(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapTrials(workers, 8, func(i int) (int, error) {
			if i == 5 {
				panic("boom at five")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error from panicking trial", workers)
		}
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: err = %v, want *TrialError", workers, err)
		}
		if te.Trial != 5 || te.PanicValue != "boom at five" {
			t.Fatalf("workers=%d: TrialError = %+v", workers, te)
		}
		if !strings.Contains(err.Error(), "trial 5") || !strings.Contains(err.Error(), "boom at five") {
			t.Fatalf("workers=%d: error text does not identify the trial: %v", workers, err)
		}
		if te.Stack == "" {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
	}
}

func TestSupervisedQuarantinesPanicAndContinues(t *testing.T) {
	sup := NewSupervisor(0)
	var ran atomic.Int64
	_, err := Supervised(sup, "batch-a", 4, 16, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			panic(fmt.Sprintf("trial %d exploded", i))
		}
		return i * i, nil
	})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if qe.Batch != "batch-a" || len(qe.Trials) != 1 {
		t.Fatalf("quarantine = %+v", qe)
	}
	te := qe.Trials[0]
	if te.Trial != 3 || te.Batch != "batch-a" || te.PanicValue != "trial 3 exploded" {
		t.Fatalf("TrialError = %+v", te)
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d trials, want all 16 (run must continue past the panic)", got)
	}
	if q := sup.Quarantined(); len(q) != 1 || q[0].Trial != 3 {
		t.Fatalf("supervisor quarantine record = %+v", q)
	}
}

func TestSupervisedWatchdogRetryDeterminism(t *testing.T) {
	// Trial 2 hangs on its first attempt and succeeds on the retry; the
	// retry must recompute the same index so the result set is the same
	// as an un-hung run.
	var attempts sync.Map
	sup := NewSupervisor(50 * time.Millisecond)
	hang := make(chan struct{})
	defer close(hang)
	out, err := Supervised(sup, "retry", 2, 6, func(i int) (float64, error) {
		n, _ := attempts.LoadOrStore(i, new(atomic.Int64))
		if a := n.(*atomic.Int64).Add(1); i == 2 && a == 1 {
			<-hang // first attempt of trial 2 hangs past the watchdog
		}
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i)*1.5 {
			t.Fatalf("out[%d] = %v, want %v", i, v, float64(i)*1.5)
		}
	}
	n, _ := attempts.Load(2)
	if got := n.(*atomic.Int64).Load(); got != 2 {
		t.Fatalf("trial 2 attempted %d times, want 2 (one deterministic retry)", got)
	}
}

func TestSupervisedWatchdogQuarantinesAfterSecondTimeout(t *testing.T) {
	sup := NewSupervisor(30 * time.Millisecond)
	hang := make(chan struct{})
	defer close(hang)
	_, err := Supervised(sup, "hung", 2, 4, func(i int) (int, error) {
		if i == 1 {
			<-hang // hangs on every attempt
		}
		return i, nil
	})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	te := qe.Trials[0]
	if te.Trial != 1 || !te.TimedOut || te.Attempts != 2 {
		t.Fatalf("TrialError = %+v, want trial 1 timed out after 2 attempts", te)
	}
}

func TestSupervisedStopInterrupts(t *testing.T) {
	sup := NewSupervisor(0)
	var ran atomic.Int64
	_, err := Supervised(sup, "drain", 1, 20, func(i int) (int, error) {
		if ran.Add(1) == 5 {
			sup.Stop() // drain mid-batch, as the signal handler would
		}
		return i + 100, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.Contains(err.Error(), "5/20 trials complete") {
		t.Fatalf("err = %v, want the 5 completed before the drain reported", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("%d trials ran, want 5 (no new claims after the drain)", got)
	}
}

func TestSupervisedErrorAbortsBatch(t *testing.T) {
	sup := NewSupervisor(0)
	wantErr := errors.New("hard failure")
	_, err := Supervised(sup, "hard", 4, 10, func(i int) (int, error) {
		if i >= 4 {
			return 0, wantErr
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped hard failure", err)
	}
	if !strings.Contains(err.Error(), `batch "hard"`) {
		t.Fatalf("error does not name the batch: %v", err)
	}
}

func TestSupervisedNilSupMatchesMapTrials(t *testing.T) {
	out, err := Supervised[int](nil, "plain", 3, 9, func(i int) (int, error) {
		return i * 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MapTrials(3, 9, func(i int) (int, error) { return i * 7, nil })
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	// Unsupervised, a panic fails the batch fast, labeled with it.
	_, err = Supervised[int](nil, "plain", 1, 3, func(i int) (int, error) {
		if i == 1 {
			panic("plain-path panic")
		}
		return i, nil
	})
	var te *TrialError
	if !errors.As(err, &te) || te.Trial != 1 || te.Batch != "plain" {
		t.Fatalf("err = %v, want *TrialError for trial 1 of batch plain", err)
	}
}
