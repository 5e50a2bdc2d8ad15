package numeric

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// ErlangCDF returns the CDF at t of an Erlang distribution with k
// phases of the given rate: the k-fold convolution of Exp(rate).
func ErlangCDF(k int, rate, t float64) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("numeric: Erlang requires k >= 1, got %d", k)
	}
	if rate <= 0 {
		return 0, fmt.Errorf("numeric: Erlang requires rate > 0, got %v", rate)
	}
	if t <= 0 {
		return 0, nil
	}
	// F(t) = 1 - e^{-rt} sum_{m<k} (rt)^m / m!
	rt := rate * t
	term := 1.0
	sum := 1.0
	for m := 1; m < k; m++ {
		term *= rt / float64(m)
		sum += term
	}
	return Clamp01(1 - math.Exp(-rt)*sum), nil
}

func TestHypoexpCoefficientsSumToOne(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 2},
		{0.5, 1.5, 3},
		{0.1, 0.2, 0.4, 0.8, 1.6},
	}
	for _, rates := range cases {
		coef, err := HypoexpCoefficients(rates)
		if err != nil {
			t.Fatalf("rates %v: %v", rates, err)
		}
		sum := 0.0
		for _, a := range coef {
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("rates %v: coefficients sum to %v, want 1", rates, sum)
		}
	}
}

func TestHypoexpCoefficientsErrors(t *testing.T) {
	if _, err := HypoexpCoefficients(nil); err == nil {
		t.Fatal("no error for empty rates")
	}
	if _, err := HypoexpCoefficients([]float64{1, -2}); err == nil {
		t.Fatal("no error for negative rate")
	}
	if _, err := HypoexpCoefficients([]float64{1, 1}); err == nil {
		t.Fatal("no error for duplicate rates")
	}
	if _, err := HypoexpCoefficients([]float64{1, 1 + 1e-9}); err == nil {
		t.Fatal("no error for nearly-equal rates")
	}
}

func TestHypoexpSingleRateIsExponential(t *testing.T) {
	for _, tt := range []float64{0.1, 1, 5, 20} {
		got, err := HypoexpCDF([]float64{0.7}, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-0.7*tt)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("t=%v: got %v want %v", tt, got, want)
		}
	}
}

func TestHypoexpEqualRatesMatchesErlang(t *testing.T) {
	// Equal rates force the uniformization fallback, which must agree
	// with the Erlang closed form.
	for _, k := range []int{2, 3, 5} {
		for _, tt := range []float64{0.5, 2, 10, 40} {
			rates := make([]float64, k)
			for i := range rates {
				rates[i] = 0.3
			}
			got, err := HypoexpCDF(rates, tt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ErlangCDF(k, 0.3, tt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("k=%d t=%v: uniformization %v vs Erlang %v", k, tt, got, want)
			}
		}
	}
}

func TestHypoexpDistinctRatesBothMethodsAgree(t *testing.T) {
	rates := []float64{0.2, 0.5, 1.1, 2.3}
	for _, tt := range []float64{0.1, 1, 3, 8, 25} {
		closed, err := HypoexpCDF(rates, tt)
		if err != nil {
			t.Fatal(err)
		}
		unif := hypoexpUniformization(rates, tt)
		if math.Abs(closed-unif) > 1e-7 {
			t.Fatalf("t=%v: closed %v vs uniformization %v", tt, closed, unif)
		}
	}
}

func TestHypoexpMonteCarlo(t *testing.T) {
	// The CDF must match the empirical distribution of a sum of
	// independent exponentials.
	rates := []float64{0.4, 0.9, 1.7}
	s := rng.New(99)
	const n = 100000
	samples := make([]float64, n)
	for i := range samples {
		v := 0.0
		for _, r := range rates {
			v += s.Exp(r)
		}
		samples[i] = v
	}
	for _, tt := range []float64{1, 3, 6, 12} {
		hits := 0
		for _, v := range samples {
			if v <= tt {
				hits++
			}
		}
		emp := float64(hits) / n
		got, err := HypoexpCDF(rates, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-emp) > 0.01 {
			t.Fatalf("t=%v: CDF %v vs empirical %v", tt, got, emp)
		}
	}
}

func TestHypoexpCDFMonotoneAndBounded(t *testing.T) {
	s := rng.New(5)
	f := func(a, b, c uint16) bool {
		rates := []float64{
			0.01 + float64(a%1000)/100,
			0.013 + float64(b%1000)/97,
			0.017 + float64(c%1000)/89,
		}
		prev := 0.0
		for tt := 0.0; tt <= 50; tt += 2.5 {
			v, err := HypoexpCDF(rates, tt+s.Float64()*0) // deterministic grid
			if err != nil {
				return false
			}
			if v < prev-1e-9 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHypoexpCDFNonPositiveTime(t *testing.T) {
	v, err := HypoexpCDF([]float64{1, 2}, -3)
	if err != nil || v != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", v, err)
	}
}

func TestErlangCDFAgainstIncompleteGamma(t *testing.T) {
	// Erlang(1, r) is Exp(r).
	got, err := ErlangCDF(1, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-3)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestErlangErrors(t *testing.T) {
	if _, err := ErlangCDF(0, 1, 1); err == nil {
		t.Fatal("no error for k=0")
	}
	if _, err := ErlangCDF(2, 0, 1); err == nil {
		t.Fatal("no error for rate=0")
	}
}

func TestLogFactorial(t *testing.T) {
	fact := 1.0
	for n := 0; n <= 20; n++ {
		if n > 0 {
			fact *= float64(n)
		}
		if math.Abs(LogFactorial(n)-math.Log(fact)) > 1e-9 {
			t.Fatalf("LogFactorial(%d) = %v, want %v", n, LogFactorial(n), math.Log(fact))
		}
	}
}

func TestLogFallingFactorial(t *testing.T) {
	// 10*9*8 = 720
	if v := LogFallingFactorial(10, 3); math.Abs(v-math.Log(720)) > 1e-9 {
		t.Fatalf("got %v want %v", v, math.Log(720))
	}
	if v := LogFallingFactorial(5, 0); v != 0 {
		t.Fatalf("k=0 should be 0, got %v", v)
	}
}

func TestLogChoose(t *testing.T) {
	// C(10, 4) = 210
	if v := LogChoose(10, 4); math.Abs(v-math.Log(210)) > 1e-9 {
		t.Fatalf("got %v want %v", v, math.Log(210))
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 4, 11} {
		for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				v := BinomialPMF(n, k, p)
				if v < 0 || v > 1 {
					t.Fatalf("PMF(%d,%d,%v) = %v out of range", n, k, p, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("n=%d p=%v: PMF sums to %v", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFMean(t *testing.T) {
	n, p := 12, 0.3
	mean := 0.0
	for k := 0; k <= n; k++ {
		mean += float64(k) * BinomialPMF(n, k, p)
	}
	if math.Abs(mean-float64(n)*p) > 1e-9 {
		t.Fatalf("mean %v, want %v", mean, float64(n)*p)
	}
}

func TestBinomialPMFOutOfRange(t *testing.T) {
	if BinomialPMF(5, -1, 0.5) != 0 || BinomialPMF(5, 6, 0.5) != 0 {
		t.Fatal("out-of-range k should have zero probability")
	}
}

func TestStirlingLogFactorialApproximation(t *testing.T) {
	// Relative error of n ln n - n against ln n! shrinks as n grows.
	for _, n := range []float64{100, 1000, 10000} {
		exact, _ := math.Lgamma(n + 1)
		approx := StirlingLogFactorial(n)
		rel := math.Abs(exact-approx) / exact
		if rel > 0.02 {
			t.Fatalf("n=%v: relative error %v too large", n, rel)
		}
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Fatalf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Log2 returns base-2 logarithm; 0 for x <= 0 (entropy convention
// 0*log 0 = 0 is handled by callers).
func Log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatalf("Log2(8) = %v", Log2(8))
	}
	if Log2(0) != 0 || Log2(-1) != 0 {
		t.Fatal("Log2 of non-positive should be 0")
	}
}

func BenchmarkHypoexpCDFClosed(b *testing.B) {
	rates := []float64{0.2, 0.5, 1.1, 2.3}
	for i := 0; i < b.N; i++ {
		_, _ = HypoexpCDF(rates, 7)
	}
}

func BenchmarkHypoexpCDFUniformization(b *testing.B) {
	rates := []float64{0.3, 0.3, 0.3, 0.3}
	for i := 0; i < b.N; i++ {
		_, _ = HypoexpCDF(rates, 7)
	}
}
