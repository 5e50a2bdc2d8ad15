// Package stats provides the descriptive statistics used by the
// experiment harness: streaming moment accumulators, confidence
// intervals, empirical CDFs (delivery-time to delivery-rate curves),
// Shannon entropy, and the run-length decomposition at the heart of the
// traceable-rate metric (Eq. 1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance (Welford). The zero
// value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(v float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = v, v
	} else {
		a.min = math.Min(a.min, v)
		a.max = math.Max(a.max, v)
	}
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or NaN if empty. NaN — not a silent
// zero — so an upstream empty-result bug cannot masquerade as a
// legitimate zero data point; callers that can validly be empty must
// guard with N() > 0 (Series.Validate rejects NaN points for the same
// reason).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval around the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Summary is a value snapshot of an Accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize returns a snapshot of the accumulator. An empty
// accumulator summarizes with Mean = NaN (see Mean).
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), CI95: a.CI95(), Min: a.min, Max: a.max}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.3g (sd=%.3g, min=%.3g, max=%.3g)",
		s.N, s.Mean, s.CI95, s.StdDev, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice —
// never a silent 0, which would let an empty upstream result pass as a
// legitimate zero data point. Callers that may legally see an empty
// slice must check len(xs) first.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or
// out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function over observed
// values, with support for censored observations (values known only to
// exceed some bound, e.g. messages not delivered by the simulation
// horizon).
type ECDF struct {
	values   []float64
	censored int
	sorted   bool
}

// NewECDF returns an empty ECDF.
func NewECDF() *ECDF { return &ECDF{} }

// Observe records a realized value (e.g. a delivery time).
func (e *ECDF) Observe(v float64) {
	e.values = append(e.values, v)
	e.sorted = false
}

// ObserveCensored records an observation that never materialized within
// the horizon (e.g. an undelivered message); it contributes to the
// denominator at every evaluation point.
func (e *ECDF) ObserveCensored() { e.censored++ }

// N returns the total number of observations, censored included.
func (e *ECDF) N() int { return len(e.values) + e.censored }

// At returns the fraction of observations with value <= t. Censored
// observations count as "greater than any t".
func (e *ECDF) At(t float64) float64 {
	n := e.N()
	if n == 0 {
		return 0
	}
	if !e.sorted {
		sort.Float64s(e.values)
		e.sorted = true
	}
	idx := sort.SearchFloat64s(e.values, math.Nextafter(t, math.Inf(1)))
	return float64(idx) / float64(n)
}

// SumSquaredTrueRuns returns the sum over maximal runs of true bits of
// the squared run length — the numerator of the traceable rate (Eq. 1).
func SumSquaredTrueRuns(bits []bool) int {
	total, run := 0, 0
	for _, b := range bits {
		if b {
			run++
			continue
		}
		total += run * run
		run = 0
	}
	return total + run*run
}

// Series is a named sequence of (x, y) points with optional
// per-point confidence half-widths, the unit of figure output.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	CI   []float64 `json:"ci,omitempty"` // optional; nil or same length as Y
}

// Append adds a point to the series.
func (s *Series) Append(x, y, ci float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.CI = append(s.CI, ci)
}

// Validate checks internal consistency. NaN points are rejected with
// an explicit error: they are what an empty accumulator's Mean looks
// like downstream (and JSON cannot encode them), so surfacing them at
// validation names the bug instead of failing at marshal time.
func (s *Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("stats: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	if s.CI != nil && len(s.CI) != len(s.Y) {
		return fmt.Errorf("stats: series %q has %d CI values and %d y values", s.Name, len(s.CI), len(s.Y))
	}
	for i := range s.Y {
		if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
			return fmt.Errorf("stats: series %q has NaN at point %d (empty accumulator upstream?)", s.Name, i)
		}
	}
	return nil
}
