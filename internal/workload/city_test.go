package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/stats"
)

// cityGoldenSpec is the pinned configuration of the committed golden
// trace (testdata/city-golden.trace). Regenerate after an intentional
// generator change with:
//
//	UPDATE_CITY_GOLDEN=1 go test ./internal/workload/ -run CityGoldenTrace
func cityGoldenSpec() CitySpec {
	s := DefaultCitySpec(50)
	s.Horizon = 7200
	s.Seed = 7
	s.Workers = 1
	return s
}

// TestCityGoldenTrace locks the generator output byte-for-byte at a
// pinned seed: any change to position placement, pair streams, rate
// math, or serialization fails here rather than silently shifting every
// scale benchmark.
func TestCityGoldenTrace(t *testing.T) {
	tr, err := CityScale(cityGoldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "city-golden.trace")
	if os.Getenv("UPDATE_CITY_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, buf.Len())
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("city trace drifted from committed golden (%d bytes generated, %d committed)", buf.Len(), len(golden))
	}
}

// TestCityWorkerDeterminism asserts the MapTrials contract holds for
// the generator: the trace is identical for every worker count.
func TestCityWorkerDeterminism(t *testing.T) {
	s := DefaultCitySpec(300)
	s.Horizon = 14400
	s.Seed = 42
	var base *bytes.Buffer
	for _, workers := range []int{1, 4} {
		s.Workers = workers
		tr, err := CityScale(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = &buf
			continue
		}
		if !bytes.Equal(base.Bytes(), buf.Bytes()) {
			t.Fatalf("trace differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestCityGridMatchesBruteForce checks the cell-binned neighbor search
// against the O(N^2) definition, including the degenerate geometries
// where the 3x3 block wraps onto itself (1 and 2 cells per side).
func TestCityGridMatchesBruteForce(t *testing.T) {
	for _, width := range []float64{80, 150, 450, 2000} {
		s := DefaultCitySpec(200)
		s.Width = width
		s.Seed = 3
		root := rng.New(s.Seed)
		xs, ys := s.cityPositions(root)
		grid := newCityGrid(s, xs, ys)

		want := map[[2]int]bool{}
		for i := 0; i < s.Nodes; i++ {
			for j := i + 1; j < s.Nodes; j++ {
				if torusDist(xs[i], ys[i], xs[j], ys[j], s.Width) < s.Range {
					want[[2]int{i, j}] = true
				}
			}
		}
		got := map[[2]int]bool{}
		for i := 0; i < s.Nodes; i++ {
			grid.neighborhood(xs[i], ys[i], func(j int32) {
				if int(j) > i && torusDist(xs[i], ys[i], xs[int(j)], ys[int(j)], s.Width) < s.Range {
					if got[[2]int{i, int(j)}] {
						t.Fatalf("width %v: pair (%d,%d) visited twice", width, i, j)
					}
					got[[2]int{i, int(j)}] = true
				}
			})
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("width %v: grid found %d pairs, brute force %d", width, len(got), len(want))
		}
	}
}

// TestCityPoissonSanity checks the statistical model: the busiest
// pair's inter-contact gaps follow the exponential law at that pair's
// distance-derived rate (two-sample KS), and the total contact count
// sits near its analytic expectation.
func TestCityPoissonSanity(t *testing.T) {
	s := DefaultCitySpec(40)
	s.Horizon = 10 * 86400
	s.Seed = 11
	tr, err := CityScale(s)
	if err != nil {
		t.Fatal(err)
	}

	root := rng.New(s.Seed)
	xs, ys := s.cityPositions(root)

	// Analytic expected total: sum of rate*Horizon over in-range pairs.
	expected := 0.0
	for i := 0; i < s.Nodes; i++ {
		for j := i + 1; j < s.Nodes; j++ {
			expected += s.cityRate(torusDist(xs[i], ys[i], xs[j], ys[j], s.Width)) * s.Horizon
		}
	}
	got := float64(len(tr.Contacts))
	// Poisson sum: sd = sqrt(mean); allow 6 sigma.
	if sigma := math.Sqrt(expected); math.Abs(got-expected) > 6*sigma {
		t.Errorf("total contacts %v too far from expectation %v (sd %v)", got, expected, sigma)
	}

	// Busiest pair's inter-contact gaps vs a reference exponential
	// sample at the same rate.
	counts := map[[2]int]int{}
	starts := map[[2]int][]float64{}
	for _, c := range tr.Contacts {
		k := [2]int{int(c.A), int(c.B)}
		counts[k]++
		starts[k] = append(starts[k], c.Start)
	}
	var best [2]int
	for k, n := range counts {
		if n > counts[best] {
			best = k
		}
	}
	st := starts[best]
	gaps := make([]float64, 0, len(st))
	prev := 0.0
	for _, v := range st {
		gaps = append(gaps, v-prev)
		prev = v
	}
	rate := s.cityRate(torusDist(xs[best[0]], ys[best[0]], xs[best[1]], ys[best[1]], s.Width))
	ref := rng.New(99).Split("city-ks-ref")
	refSample := make([]float64, 2000)
	for i := range refSample {
		refSample[i] = ref.Exp(rate)
	}
	same, d, err := stats.KSSameDistribution(gaps, refSample, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Errorf("busiest pair gaps (n=%d, rate=%v) rejected as exponential: KS=%v", len(gaps), rate, d)
	}
}

// TestCitySpecValidate covers the rejection paths.
func TestCitySpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CitySpec)
	}{
		{"one node", func(s *CitySpec) { s.Nodes = 1 }},
		{"too many nodes", func(s *CitySpec) { s.Nodes = 1<<24 + 1 }},
		{"zero width", func(s *CitySpec) { s.Width = 0 }},
		{"nan width", func(s *CitySpec) { s.Width = math.NaN() }},
		{"zero range", func(s *CitySpec) { s.Range = 0 }},
		{"negative ict", func(s *CitySpec) { s.MeanICT = -1 }},
		{"zero contact duration", func(s *CitySpec) { s.ContactSec = 0 }},
		{"zero horizon", func(s *CitySpec) { s.Horizon = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultCitySpec(100)
			tc.mutate(&s)
			if _, err := CityScale(s); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestCityScaleFitAndReplay runs the city-scale pipeline end to end at
// a small N: generate a trace, fit its contact graph, and replay every
// contact start through the discrete-event scheduler.
func TestCityScaleFitAndReplay(t *testing.T) {
	spec := DefaultCitySpec(400)
	spec.Seed = 1
	tr, err := CityScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contacts) == 0 {
		t.Fatal("city trace has no contacts")
	}
	g, err := tr.EstimateRates()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("fitted graph invalid: %v", err)
	}
	for _, c := range tr.Contacts {
		if g.Rate(c.A, c.B) <= 0 {
			t.Fatalf("pair %d-%d meets in the trace but has rate %v", c.A, c.B, g.Rate(c.A, c.B))
		}
	}

	s := des.New()
	dispatched := 0
	for _, c := range tr.Contacts {
		s.At(c.Start, func() { dispatched++ })
	}
	if got := s.Run(); got != len(tr.Contacts) || dispatched != len(tr.Contacts) {
		t.Fatalf("replay dispatched %d (callbacks %d) of %d contacts", got, dispatched, len(tr.Contacts))
	}
}
