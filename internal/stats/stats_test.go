package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || !math.IsNaN(a.Mean()) || a.Variance() != 0 {
		t.Fatal("zero-value accumulator not empty")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 4*8/7.
	want := 4.0 * 8 / 7
	if math.Abs(a.Variance()-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", a.Variance(), want)
	}
	if a.min != 2 || a.max != 9 {
		t.Fatalf("min/max = %v/%v", a.min, a.max)
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("variance with one observation should be 0")
	}
	if a.min != 3 || a.max != 3 {
		t.Fatal("min/max wrong for single observation")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		var a Accumulator
		for _, v := range xs {
			a.Add(v)
		}
		return math.Abs(a.Mean()-Mean(xs)) <= 1e-6*(1+math.Abs(Mean(xs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 2))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	if s := a.Summarize().String(); s == "" {
		t.Fatal("empty summary string")
	}
}

// TestMeanEmpty pins the empty-input contract: the mean of nothing is
// NaN, never a silent 0 that an empty upstream result could hide
// behind. Callers that may legally see empty input must guard first.
func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatalf("Mean(nil) = %v, want NaN", Mean(nil))
	}
	if !math.IsNaN(Mean([]float64{})) {
		t.Fatalf("Mean([]) = %v, want NaN", Mean([]float64{}))
	}
}

// TestAccumulatorEmptyContract pins the full empty-accumulator
// behavior: Mean (and Summarize().Mean) are NaN; the spread statistics
// stay at their harmless zeros.
func TestAccumulatorEmptyContract(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) {
		t.Fatalf("empty Mean = %v, want NaN", a.Mean())
	}
	if a.Variance() != 0 || a.StdDev() != 0 || a.StdErr() != 0 || a.CI95() != 0 {
		t.Fatal("empty spread statistics should be 0")
	}
	if a.min != 0 || a.max != 0 {
		t.Fatal("empty min/max should be 0")
	}
	s := a.Summarize()
	if s.N != 0 || !math.IsNaN(s.Mean) {
		t.Fatalf("empty summary = %+v, want N=0 Mean=NaN", s)
	}
	// One observation restores a well-defined mean.
	a.Add(7)
	if a.Mean() != 7 {
		t.Fatalf("Mean after one Add = %v", a.Mean())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if v := Quantile(xs, 0.25); v != 2 {
		t.Fatalf("q25 = %v", v)
	}
	// input must not be mutated
	if xs[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF()
	if e.At(10) != 0 {
		t.Fatal("empty ECDF should be 0 everywhere")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		e.Observe(v)
	}
	e.ObserveCensored() // one never-delivered message
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct{ t, want float64 }{
		{0.5, 0}, {1, 0.2}, {2.5, 0.4}, {4, 0.8}, {100, 0.8},
	}
	for _, c := range cases {
		if got := e.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestECDFObserveAfterQuery(t *testing.T) {
	e := NewECDF()
	e.Observe(2)
	_ = e.At(1) // forces sort
	e.Observe(1)
	if got := e.At(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("At(1) after re-observe = %v, want 0.5", got)
	}
}

func TestECDFCurveMonotone(t *testing.T) {
	e := NewECDF()
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		e.Observe(v)
	}
	ts := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 1; i < len(ts); i++ {
		if e.At(ts[i]) < e.At(ts[i-1]) {
			t.Fatalf("ECDF not monotone at %v", ts[i])
		}
	}
	if e.At(ts[len(ts)-1]) != 1 {
		t.Fatal("ECDF should reach 1 past the max")
	}
}

// Run is a maximal block of consecutive equal bits.
type Run struct {
	Value  bool // the bit value of the block
	Length int  // number of consecutive positions
}

// Runs decomposes bits into maximal runs, in order; an empty input
// yields nil. It is the reference SumSquaredTrueRuns is checked against.
func Runs(bits []bool) []Run {
	if len(bits) == 0 {
		return nil
	}
	var out []Run
	cur := Run{Value: bits[0], Length: 1}
	for _, b := range bits[1:] {
		if b == cur.Value {
			cur.Length++
			continue
		}
		out = append(out, cur)
		cur = Run{Value: b, Length: 1}
	}
	return append(out, cur)
}

func TestRuns(t *testing.T) {
	cases := []struct {
		bits []bool
		want []Run
	}{
		{nil, nil},
		{[]bool{true}, []Run{{true, 1}}},
		{[]bool{true, true, false, true}, []Run{{true, 2}, {false, 1}, {true, 1}}},
		{[]bool{false, false, false}, []Run{{false, 3}}},
	}
	for _, c := range cases {
		got := Runs(c.bits)
		if len(got) != len(c.want) {
			t.Fatalf("Runs(%v) = %v, want %v", c.bits, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Runs(%v) = %v, want %v", c.bits, got, c.want)
			}
		}
	}
}

func TestRunsTotalLength(t *testing.T) {
	f := func(bits []bool) bool {
		total := 0
		for _, r := range Runs(bits) {
			if r.Length <= 0 {
				return false
			}
			total += r.Length
		}
		return total == len(bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunsAlternate(t *testing.T) {
	// Adjacent runs must alternate values.
	f := func(bits []bool) bool {
		rs := Runs(bits)
		for i := 1; i < len(rs); i++ {
			if rs[i].Value == rs[i-1].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumSquaredTrueRuns(t *testing.T) {
	// Paper's example: path 10010 -> runs of 1s: [1],[1] -> 1+1 = 2.
	bits := []bool{true, false, false, true, false}
	if got := SumSquaredTrueRuns(bits); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	// Paper's example: 01110 -> one run of 3 -> 9.
	bits = []bool{false, true, true, true, false}
	if got := SumSquaredTrueRuns(bits); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
	// Paper Sec. II-C: compromising v1,v2,v4 on a 4-hop path gives
	// bits 1101 -> 4+1 = 5 (traceable rate 5/16).
	bits = []bool{true, true, false, true}
	if got := SumSquaredTrueRuns(bits); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
}

func TestSumSquaredTrueRunsMatchesRuns(t *testing.T) {
	f := func(bits []bool) bool {
		want := 0
		for _, r := range Runs(bits) {
			if r.Value {
				want += r.Length * r.Length
			}
		}
		return SumSquaredTrueRuns(bits) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesValidate(t *testing.T) {
	s := &Series{Name: "a"}
	s.Append(1, 2, 0.1)
	s.Append(2, 3, 0.2)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Series{Name: "b", X: []float64{1}, Y: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched series validated")
	}
	badCI := &Series{Name: "c", X: []float64{1}, Y: []float64{1}, CI: []float64{1, 2}}
	if err := badCI.Validate(); err == nil {
		t.Fatal("mismatched CI validated")
	}
}

// TestSeriesValidateRejectsNaN pins the guard that makes an empty
// accumulator loud: appending its NaN mean to a series must fail
// validation with a message naming the likely cause, instead of
// surviving until JSON marshaling (which cannot encode NaN).
func TestSeriesValidateRejectsNaN(t *testing.T) {
	var empty Accumulator
	s := &Series{Name: "nan"}
	s.Append(1, empty.Mean(), empty.CI95())
	err := s.Validate()
	if err == nil {
		t.Fatal("series with NaN point validated")
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("error %q does not mention NaN", err)
	}
	badX := &Series{Name: "nanx", X: []float64{math.NaN()}, Y: []float64{1}}
	if err := badX.Validate(); err == nil {
		t.Fatal("series with NaN x validated")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}

func BenchmarkSumSquaredTrueRuns(b *testing.B) {
	bits := make([]bool, 64)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	for i := 0; i < b.N; i++ {
		_ = SumSquaredTrueRuns(bits)
	}
}
