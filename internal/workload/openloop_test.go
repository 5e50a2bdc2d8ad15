package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/rng"
)

func TestArrivalsValidation(t *testing.T) {
	bad := []Arrivals{
		{Rate: 0},
		{Rate: -1},
		{Rate: 1, Burst: -2},
		{Rate: 1, Burst: 4},                      // bursty without a fraction
		{Rate: 1, Burst: 4, BurstFraction: 1},    // fraction not in (0,1)
		{Rate: 1, Burst: 4, BurstFraction: -0.1}, // fraction not in (0,1)
		{Rate: 1, Burst: 4, BurstFraction: 0.2, BurstDwell: -1},
	}
	for i, a := range bad {
		if err := a.validate(); err == nil {
			t.Errorf("arrivals %d accepted: %+v", i, a)
		}
	}
	good := []Arrivals{
		{Rate: 2},
		{Rate: 2, Burst: 1}, // factor 1 = plain Poisson
		{Rate: 2, Burst: 8, BurstFraction: 0.1},
	}
	for i, a := range good {
		if err := a.validate(); err != nil {
			t.Errorf("arrivals %d rejected: %v", i, err)
		}
	}
}

// TestScheduleRateCalibration: both the plain Poisson and the MMPP-2
// schedule must achieve the configured long-run mean rate. The MMPP
// calibration divides the calm rate down so bursts do not inflate the
// mean.
func TestScheduleRateCalibration(t *testing.T) {
	const horizon, rate = 50_000.0, 2.0
	cases := map[string]Arrivals{
		"poisson": {Rate: rate},
		"mmpp":    {Rate: rate, Burst: 6, BurstFraction: 0.2, BurstDwell: 10},
	}
	for name, a := range cases {
		times := a.Schedule(horizon, rng.New(11))
		got := float64(len(times)) / horizon
		if math.Abs(got-rate)/rate > 0.05 {
			t.Errorf("%s: achieved rate %.3f, want %.1f ±5%%", name, got, rate)
		}
		for i, at := range times {
			if at < 0 || at >= horizon {
				t.Fatalf("%s: arrival %d at %v outside [0, %v)", name, i, at, horizon)
			}
			if i > 0 && at < times[i-1] {
				t.Fatalf("%s: arrivals out of order at %d", name, i)
			}
		}
	}
}

// TestMMPPBurstier: with the same mean rate, the MMPP-2 process must
// show more count variance over fixed windows than plain Poisson —
// that is the point of modeling bursts.
func TestMMPPBurstier(t *testing.T) {
	const horizon, rate, window = 20_000.0, 2.0, 50.0
	variance := func(times []float64) float64 {
		bins := make([]float64, int(horizon/window))
		for _, at := range times {
			bins[int(at/window)]++
		}
		mean := 0.0
		for _, c := range bins {
			mean += c
		}
		mean /= float64(len(bins))
		v := 0.0
		for _, c := range bins {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(bins))
	}
	poisson := variance(Arrivals{Rate: rate}.Schedule(horizon, rng.New(13)))
	mmpp := variance(Arrivals{Rate: rate, Burst: 8, BurstFraction: 0.15, BurstDwell: 20}.Schedule(horizon, rng.New(13)))
	if mmpp < 2*poisson {
		t.Fatalf("MMPP window variance %.2f not clearly above Poisson %.2f", mmpp, poisson)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Arrivals{Rate: 3, Burst: 5, BurstFraction: 0.25}
	x := a.Schedule(1000, rng.New(17))
	y := a.Schedule(1000, rng.New(17))
	if len(x) != len(y) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestRunOpenLoopDelivers(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 30, GroupSize: 5, Seed: 23})
	spec := OpenLoopSpec{
		Arrivals:    Arrivals{Rate: 0.5},
		Horizon:     100,
		Drain:       5000,
		PayloadSize: 64,
		Relays:      2,
		Copies:      1,
		Seed:        24,
	}
	res, err := RunOpenLoop(InProcess(nw), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if got := res.OfferedRate; math.Abs(got-0.5) > 0.3 {
		t.Errorf("offered rate %.3f far from target 0.5", got)
	}
	if res.DeliveryRatio < 0.9 {
		t.Fatalf("delivery ratio %.3f with a generous drain", res.DeliveryRatio)
	}
	if len(res.Latencies) != res.Delivered {
		t.Fatalf("%d latencies for %d deliveries", len(res.Latencies), res.Delivered)
	}
	p50, ok := res.LatencyQuantile(0.50)
	if !ok || p50 <= 0 {
		t.Fatalf("p50 = %v, %v", p50, ok)
	}
	p99, _ := res.LatencyQuantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %.2f < p50 %.2f", p99, p50)
	}
	v := res.CheckSLO(SLO{MinDeliveryRatio: 0.5, MaxP99: p99 + 1})
	if !v.Pass {
		t.Fatalf("generous SLO breached: %v", v.Breaches)
	}
	v = res.CheckSLO(SLO{MinDeliveryRatio: 1.1})
	if v.Pass || len(v.Breaches) != 1 {
		t.Fatalf("impossible SLO passed: %+v", v)
	}
}

// TestZeroDeliveredPathPinned pins the zero-delivered guard the old
// closed-loop example lacked: every latency accessor must degrade
// explicitly instead of dividing by zero or calling Quantile on an
// empty slice.
func TestZeroDeliveredPathPinned(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 10, GroupSize: 2, Seed: 29})
	// Sub-millisecond expiry: every onion dies at the contact after its
	// injection, so nothing is ever delivered while injection proceeds
	// at full rate.
	res, err := RunOpenLoop(InProcess(nw), g, OpenLoopSpec{
		Arrivals:    Arrivals{Rate: 1},
		Horizon:     200,
		Relays:      1,
		Copies:      1,
		ExpiryAfter: 1e-9,
		Seed:        30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("open-loop injection must proceed even when nothing delivers")
	}
	if res.Delivered != 0 {
		t.Skipf("%d messages beat the expiry; cannot pin the zero path", res.Delivered)
	}
	if res.DeliveryRatio != 0 {
		t.Fatalf("delivery ratio = %v, want exactly 0", res.DeliveryRatio)
	}
	if _, ok := res.LatencyQuantile(0.99); ok {
		t.Fatal("quantile reported defined with zero deliveries")
	}
	if s := res.FormatLatency(0.99); !strings.Contains(s, "n/a") {
		t.Fatalf("FormatLatency = %q, want an explicit n/a", s)
	}
	// A latency SLO must breach (unbounded latency), not vacuously pass.
	if v := res.CheckSLO(SLO{MaxP99: 60}); v.Pass {
		t.Fatal("latency SLO passed with zero deliveries")
	}
}

// TestZeroInjectedPath: an empty schedule (or a contact process that
// never fires) yields zeros, not NaN.
func TestZeroInjectedPath(t *testing.T) {
	res := &Result{}
	if res.DeliveryRatio != 0 || len(res.Latencies) != 0 {
		t.Fatalf("zero value corrupt: %+v", res)
	}
	if s := res.FormatLatency(0.5); !strings.Contains(s, "n/a") {
		t.Fatalf("FormatLatency = %q", s)
	}
	if v := res.CheckSLO(SLO{MinDeliveryRatio: 0.5}); v.Pass {
		t.Fatal("ratio SLO passed with zero injected")
	}
}

// TestOpenLoopInjectsTrailingArrivals: with no drain on a sparse graph
// the contact process ends before the last arrivals, and those must
// still be injected and counted — open-loop offered load never adapts
// to the contact process drying up.
func TestOpenLoopInjectsTrailingArrivals(t *testing.T) {
	nw, err := node.NewNetwork(node.Config{Nodes: 6, GroupSize: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := contact.NewRandom(6, 5, 60, rng.New(4))
	spec := OpenLoopSpec{
		Arrivals: Arrivals{Rate: 2},
		Horizon:  60,
		Relays:   1,
		Copies:   2,
		Seed:     3,
	}
	res, err := RunOpenLoop(InProcess(nw), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Arrivals.Schedule(spec.Horizon, rng.New(spec.Seed).Split("arrivals")))
	if res.Injected != want {
		t.Fatalf("injected %d of %d scheduled arrivals", res.Injected, want)
	}
	if res.Totals.Sent != want {
		t.Fatalf("nodes originated %d of %d scheduled arrivals", res.Totals.Sent, want)
	}
}

func TestOpenLoopSpecValidation(t *testing.T) {
	nw, g := testSetup(t, node.Config{Nodes: 10, GroupSize: 2, Seed: 31})
	bad := []OpenLoopSpec{
		{Arrivals: Arrivals{Rate: 0}, Horizon: 10, Relays: 1, Copies: 1},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 0, Relays: 1, Copies: 1},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 10, Drain: -1, Relays: 1, Copies: 1},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 10, Relays: 0, Copies: 1},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 10, Relays: 1, Copies: 0},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 10, Relays: 1, Copies: 1, PayloadSize: -1},
		{Arrivals: Arrivals{Rate: 1}, Horizon: 10, Relays: 1, Copies: 1, ExpiryAfter: -1},
	}
	for i, spec := range bad {
		if _, err := RunOpenLoop(InProcess(nw), g, spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestLatencyMillis(t *testing.T) {
	cases := []struct {
		minutes float64
		want    int64
	}{
		{0, 0}, {1, 60_000}, {0.5, 30_000}, {1.0 / 60_000, 1},
	}
	for _, c := range cases {
		if got := LatencyMillis(c.minutes); got != c.want {
			t.Errorf("LatencyMillis(%v) = %d, want %d", c.minutes, got, c.want)
		}
	}
}
