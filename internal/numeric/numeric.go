// Package numeric provides the numerical building blocks of the paper's
// analytical models: a numerically stable hypoexponential CDF (the
// "opportunistic onion path" distribution of Eqs. 5-6), log-factorials
// and binomial terms (traceable rate, Eq. 11; anonymity, Eq. 15), and
// the Stirling approximation used by Eq. 19.
package numeric

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoRates is returned when a distribution is requested over an empty
// rate vector.
var ErrNoRates = errors.New("numeric: at least one rate is required")

// relGapThreshold is the minimum relative separation between two rates
// below which the product-form coefficients of Eq. 5 become unstable
// and the uniformization fallback is used instead.
const relGapThreshold = 1e-6

// coefMagLimit caps the product-form coefficient magnitude HypoexpCDF
// will evaluate through Eq. 6. The closed form's absolute error is
// roughly n * maxAbs(A_k) * machine epsilon (the sum cancels huge
// alternating terms down to a value in [0,1]), so admitting
// coefficients up to 1e5 keeps it under ~1e-10 — comfortably inside
// the 1e-9 agreement bound the switchover property test enforces. The
// previous limit of 1e12 let near-threshold vectors lose up to ~1e-4
// of absolute accuracy. Pairwise separation alone cannot guarantee
// this: several moderately close pairs multiply into one huge
// coefficient, which is exactly what this magnitude check catches.
const coefMagLimit = 1e5

// HypoexpCoefficients returns the coefficients A_k of Eq. 5,
//
//	A_k = prod_{j != k} lambda_j / (lambda_j - lambda_k),
//
// for the hypoexponential distribution with the given per-hop rates.
// An error is returned if any rate is non-positive or if two rates are
// too close for the product form to be numerically meaningful; callers
// should then evaluate the CDF via HypoexpCDF, which falls back to a
// stable method automatically.
func HypoexpCoefficients(rates []float64) ([]float64, error) {
	if len(rates) == 0 {
		return nil, ErrNoRates
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("numeric: invalid rate %v", r)
		}
	}
	if !ratesWellSeparated(rates) {
		return nil, errors.New("numeric: rates too close for product-form coefficients")
	}
	coef := make([]float64, len(rates))
	for k, lk := range rates {
		a := 1.0
		for j, lj := range rates {
			if j == k {
				continue
			}
			a *= lj / (lj - lk)
		}
		coef[k] = a
	}
	return coef, nil
}

func ratesWellSeparated(rates []float64) bool {
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	for i := 1; i < len(sorted); i++ {
		gap := sorted[i] - sorted[i-1]
		if gap <= relGapThreshold*sorted[i] {
			return false
		}
	}
	return true
}

// HypoexpEval is a reusable evaluator for the hypoexponential CDF at
// one fixed rate vector. NewHypoexpEval performs the validation and
// the product-form coefficient analysis (Eq. 5) once; CDF then
// evaluates P[X <= t] for any number of deadlines without repeating
// that work. HypoexpCDF is implemented on top of this type, so a
// cached evaluator returns bit-identical values to the one-shot call
// by construction.
type HypoexpEval struct {
	rates []float64
	// coef holds the Eq. 5 coefficients when the closed form of Eq. 6
	// is numerically safe (rates well separated, magnitudes below
	// coefMagLimit); nil means CDF uses the uniformization fallback.
	coef []float64
}

// NewHypoexpEval validates the rate vector and decides once between
// the closed form and the uniformization fallback. The rates are
// copied, so the caller may reuse its slice.
func NewHypoexpEval(rates []float64) (*HypoexpEval, error) {
	if len(rates) == 0 {
		return nil, ErrNoRates
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("numeric: invalid rate %v", r)
		}
	}
	e := &HypoexpEval{rates: append([]float64(nil), rates...)}
	if coef, err := HypoexpCoefficients(e.rates); err == nil {
		// Guard: the product form can still lose precision when the
		// coefficients are huge with alternating signs. Detect by
		// magnitude and fall back (see coefMagLimit).
		var maxAbs float64
		for _, a := range coef {
			maxAbs = math.Max(maxAbs, math.Abs(a))
		}
		if maxAbs < coefMagLimit {
			e.coef = coef
		}
	}
	return e, nil
}

// CDF returns P[X <= t] for the evaluator's rate vector; t <= 0
// yields 0.
func (e *HypoexpEval) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if e.coef != nil {
		f := 0.0
		for k, a := range e.coef {
			f += a * (1 - math.Exp(-e.rates[k]*t))
		}
		return Clamp01(f)
	}
	return hypoexpUniformization(e.rates, t)
}

// HypoexpCDF returns P[X <= t] for X hypoexponential with the given
// rates: the probability that a message traverses all hops within t
// (Eq. 6 with the 1-sum identity). Rates must be positive; t < 0
// yields 0. When rates are distinct the closed form
//
//	F(t) = sum_k A_k (1 - e^{-lambda_k t})
//
// is used; when rates (nearly) coincide the evaluation falls back to
// uniformization of the underlying absorbing Markov chain, which is
// unconditionally stable.
func HypoexpCDF(rates []float64, t float64) (float64, error) {
	e, err := NewHypoexpEval(rates)
	if err != nil {
		return 0, err
	}
	return e.CDF(t), nil
}

// hypoexpUniformization evaluates the hypoexponential CDF via
// uniformization. The absorbing CTMC has phases 1..n with rate
// lambda_k out of phase k into phase k+1 (phase n+1 absorbing).
// With uniformization constant q >= max lambda, the DTMC jumps from
// phase k to k+1 with probability lambda_k/q and self-loops otherwise;
// F(t) = sum_m Poisson(m; qt) * P[absorbed within m jumps].
func hypoexpUniformization(rates []float64, t float64) float64 {
	n := len(rates)
	q := 0.0
	for _, r := range rates {
		q = math.Max(q, r)
	}
	q *= 1.0000001 // keep self-loop probability strictly positive
	qt := q * t

	// probs[k] = probability the chain currently sits in phase k
	// (0-indexed); absorbed = probability it has been absorbed.
	probs := make([]float64, n)
	next := make([]float64, n)
	probs[0] = 1
	absorbed := 0.0

	// Poisson weights computed iteratively in log space to survive
	// large qt.
	logW := -qt // log Poisson(0; qt)
	f := 0.0
	// Truncation: stop once the remaining Poisson tail cannot change
	// the result by more than eps. Conservative bound: remaining mass
	// times 1.
	const eps = 1e-13
	cum := 0.0
	for m := 0; ; m++ {
		if m > 0 {
			logW += math.Log(qt) - math.Log(float64(m))
		}
		w := math.Exp(logW)
		cum += w
		f += w * absorbed
		if cum > 1-eps && m > int(qt) {
			break
		}
		if m > int(qt)+200+int(20*math.Sqrt(qt+1)) {
			break
		}
		// Advance the DTMC one jump.
		for k := 0; k < n; k++ {
			p := rates[k] / q
			stay := probs[k] * (1 - p)
			move := probs[k] * p
			next[k] += stay
			if k+1 < n {
				next[k+1] += move
			} else {
				absorbed += move
			}
		}
		probs, next = next, probs
		for k := range next {
			next[k] = 0
		}
	}
	// Account for the truncated tail: by then the chain is absorbed
	// with probability ~absorbed, so add tail mass times absorbed.
	f += (1 - math.Min(cum, 1)) * absorbed
	return Clamp01(f)
}

// LogFactorial returns ln(n!). It panics if n < 0.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic("numeric: LogFactorial of negative n")
	}
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}

// LogFallingFactorial returns ln(n! / (n-k)!) = ln(n (n-1) ... (n-k+1)),
// the log of the number of ordered selections of k items from n.
// It panics if k < 0 or k > n.
func LogFallingFactorial(n, k int) float64 {
	if k < 0 || k > n {
		panic("numeric: LogFallingFactorial requires 0 <= k <= n")
	}
	return LogFactorial(n) - LogFactorial(n-k)
}

// LogChoose returns ln C(n, k). It panics if k < 0 or k > n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		panic("numeric: LogChoose requires 0 <= k <= n")
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 1
		}
		return 0
	case p >= 1:
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// StirlingLogFactorial returns the paper's Stirling approximation
// ln(n!) ~= n ln(n) - n, used to derive Eq. 19.
func StirlingLogFactorial(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return n*math.Log(n) - n
}

// Clamp01 clamps v into [0, 1].
func Clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	case math.IsNaN(v):
		return 0
	default:
		return v
	}
}
