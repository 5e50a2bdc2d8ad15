package fault

import (
	"testing"

	"repro/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Truncate: 1, Corrupt: 1, Duplicate: 1, Crash: 1, Retries: 10},
		Uniform(0.3),
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Truncate: -0.1},
		{Corrupt: 1.5},
		{Duplicate: 2},
		{Crash: -1},
		{Retries: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestUniform(t *testing.T) {
	if got := Uniform(0); got != (Config{}) {
		t.Fatalf("Uniform(0) = %+v, want disabled zero config", got)
	}
	c := Uniform(0.2)
	if c.Truncate != 0.2 || c.Corrupt != 0.2 || c.Duplicate != 0.1 || c.Crash != 0.02 {
		t.Fatalf("Uniform(0.2) = %+v", c)
	}
	if c.Retries != 2 {
		t.Fatalf("Uniform(0.2).Retries = %d, want 2", c.Retries)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Uniform(0.2) invalid: %v", err)
	}
}

// TestZeroConfigDrawsNothing proves the acceptance criterion that a
// zero fault rate leaves every random schedule untouched: a disabled
// plan consumes no stream state at all.
func TestZeroConfigDrawsNothing(t *testing.T) {
	s := rng.New(7).Split("faults")
	ref := rng.New(7).Split("faults")
	p := NewPlan(Config{}, s)
	for i := 0; i < 100; i++ {
		if h := p.Handoff(128); h != (Handoff{}) {
			t.Fatalf("zero plan produced fault %+v", h)
		}
		if p.Crash() {
			t.Fatal("zero plan produced a crash")
		}
	}
	if got, want := s.Float64(), ref.Float64(); got != want {
		t.Fatalf("zero plan consumed stream state: next draw %v, want %v", got, want)
	}
}

// TestScheduleReproduces is the core determinism contract: the same
// config and seed yield an identical fault schedule, and different
// seeds yield different ones.
func TestScheduleReproduces(t *testing.T) {
	cfg := Uniform(0.4)
	draw := func(seed uint64) []Handoff {
		p := NewPlan(cfg, rng.New(seed).Split("faults"))
		out := make([]Handoff, 200)
		for i := range out {
			out[i] = p.Handoff(100 + i)
		}
		return out
	}
	a, b := draw(1), draw(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := draw(42)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 42 produced identical schedules")
	}
}

func TestHandoffClasses(t *testing.T) {
	p := NewPlan(Uniform(0.5), rng.New(3).Split("faults"))
	var trunc, corr, dup, clean int
	for i := 0; i < 2000; i++ {
		h := p.Handoff(256)
		switch {
		case h.Truncate:
			trunc++
			if h.Corrupt || h.Duplicate {
				t.Fatalf("truncate combined with other classes: %+v", h)
			}
			if h.Cut < 0 || h.Cut >= 256 {
				t.Fatalf("cut %d out of range", h.Cut)
			}
		case h.Corrupt:
			corr++
			if h.Duplicate {
				t.Fatalf("corrupt combined with duplicate: %+v", h)
			}
			if h.Flip < 0 || h.Flip >= 256 {
				t.Fatalf("flip %d out of range", h.Flip)
			}
		case h.Duplicate:
			dup++
		default:
			clean++
		}
	}
	for name, n := range map[string]int{"truncate": trunc, "corrupt": corr, "duplicate": dup, "clean": clean} {
		if n == 0 {
			t.Errorf("class %s never drawn in 2000 hand-offs at rate 0.5", name)
		}
	}
}

func TestCrash(t *testing.T) {
	p := NewPlan(Config{Crash: 0.5}, rng.New(9).Split("faults"))
	if !p.CrashEnabled() {
		t.Fatal("CrashEnabled() = false with Crash=0.5")
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if p.Crash() {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Fatalf("crash rate %d/1000, want ~500", hits)
	}
	if NewPlan(Config{Truncate: 0.5}, rng.New(9)).CrashEnabled() {
		t.Fatal("CrashEnabled() = true without churn")
	}
}

func TestNewPlanPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("invalid config", func() { NewPlan(Config{Corrupt: 2}, rng.New(1)) })
	mustPanic("nil stream", func() { NewPlan(Config{}, nil) })
}

func TestTruncateHelper(t *testing.T) {
	frame := []byte{1, 2, 3, 4, 5}
	torn := Truncate(frame, 3)
	if len(torn) != 3 || torn[0] != 1 || torn[2] != 3 {
		t.Fatalf("Truncate = %v", torn)
	}
	torn[0] = 99
	if frame[0] != 1 {
		t.Fatal("Truncate aliased its input")
	}
	if got := Truncate(frame, -1); len(got) != 0 {
		t.Fatalf("Truncate(frame, -1) = %v, want empty", got)
	}
	if got := Truncate(frame, 10); len(got) != 5 {
		t.Fatalf("Truncate(frame, 10) = %v, want full copy", got)
	}
}

func TestFlipHelper(t *testing.T) {
	frame := []byte{0x10, 0x20, 0x30}
	out := Flip(frame, 1)
	if out[1] != 0x21 || out[0] != 0x10 || out[2] != 0x30 {
		t.Fatalf("Flip = %v", out)
	}
	if frame[1] != 0x20 {
		t.Fatal("Flip mutated its input")
	}
	if got := Flip(frame, -5); got[0] != 0x11 {
		t.Fatalf("Flip clamp low = %v", got)
	}
	if got := Flip(frame, 99); got[2] != 0x31 {
		t.Fatalf("Flip clamp high = %v", got)
	}
	if Flip(nil, 0) != nil {
		t.Fatal("Flip(nil) != nil")
	}
}
