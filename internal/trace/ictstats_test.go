package trace

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
)

// Inter-contact time statistics. The paper's network model assumes
// exponential inter-contact times (Sec. III-A); these helpers quantify
// how well a trace — real or synthetic — fits that assumption, and
// feed the trace-vs-model caveats in Sec. V-E (diurnal gaps make the
// marginal ICT distribution heavy-tailed even when within-session
// contacts are Poisson).

// ICTStats summarizes the pairwise inter-contact times of a trace.
type ICTStats struct {
	Samples int     // number of inter-contact gaps measured
	Mean    float64 // seconds
	Median  float64
	CV      float64 // coefficient of variation; 1 for exponential
	Max     float64
}

// ICTOf returns the inter-contact gaps of one pair, in seconds,
// measured start-to-start.
func (t *Trace) ICTOf(a, b contact.NodeID) []float64 {
	var times []float64
	for _, c := range t.Contacts {
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			times = append(times, c.Start)
		}
	}
	if len(times) < 2 {
		return nil
	}
	gaps := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	return gaps
}

// SummarizeICT pools the inter-contact gaps of every pair.
func (t *Trace) SummarizeICT() (ICTStats, error) {
	var gaps []float64
	for a := 0; a < t.NodeCount; a++ {
		for b := a + 1; b < t.NodeCount; b++ {
			gaps = append(gaps, t.ICTOf(contact.NodeID(a), contact.NodeID(b))...)
		}
	}
	if len(gaps) == 0 {
		return ICTStats{}, fmt.Errorf("trace: no pair meets twice, no ICT to measure")
	}
	sort.Float64s(gaps)
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
		sumSq += g * g
	}
	n := float64(len(gaps))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	st := ICTStats{
		Samples: len(gaps),
		Mean:    mean,
		Median:  gaps[len(gaps)/2],
		Max:     gaps[len(gaps)-1],
	}
	if mean > 0 {
		st.CV = math.Sqrt(variance) / mean
	}
	return st, nil
}

// SessionICTStats measures inter-contact times only WITHIN activity
// sessions: gaps longer than sessionGap seconds are treated as
// off-hours boundaries and excluded. Within sessions the synthetic
// generators are exponential by construction (CV near 1); the pooled
// marginal (SummarizeICT) is heavier-tailed because of the diurnal
// silence, which is exactly the discrepancy the paper blames for the
// Infocom model gap (Sec. V-E).
func (t *Trace) SessionICTStats(sessionGap float64) (ICTStats, error) {
	if sessionGap <= 0 {
		return ICTStats{}, fmt.Errorf("trace: session gap must be positive, got %v", sessionGap)
	}
	var gaps []float64
	for a := 0; a < t.NodeCount; a++ {
		for b := a + 1; b < t.NodeCount; b++ {
			for _, g := range t.ICTOf(contact.NodeID(a), contact.NodeID(b)) {
				if g <= sessionGap {
					gaps = append(gaps, g)
				}
			}
		}
	}
	if len(gaps) == 0 {
		return ICTStats{}, fmt.Errorf("trace: no within-session ICT below %v s", sessionGap)
	}
	sort.Float64s(gaps)
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
		sumSq += g * g
	}
	n := float64(len(gaps))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	st := ICTStats{
		Samples: len(gaps),
		Mean:    mean,
		Median:  gaps[len(gaps)/2],
		Max:     gaps[len(gaps)-1],
	}
	if mean > 0 {
		st.CV = math.Sqrt(variance) / mean
	}
	return st, nil
}

func TestICTOf(t *testing.T) {
	tr := &Trace{NodeCount: 3, Contacts: []Contact{
		{A: 0, B: 1, Start: 10, End: 10},
		{A: 1, B: 0, Start: 25, End: 25}, // reversed pair order
		{A: 0, B: 1, Start: 65, End: 65},
		{A: 0, B: 2, Start: 100, End: 100},
	}}
	gaps := tr.ICTOf(0, 1)
	if len(gaps) != 2 || gaps[0] != 15 || gaps[1] != 40 {
		t.Fatalf("gaps = %v", gaps)
	}
	if tr.ICTOf(0, 2) != nil {
		t.Fatal("single contact should yield no gaps")
	}
	if tr.ICTOf(1, 2) != nil {
		t.Fatal("never-meeting pair should yield no gaps")
	}
}

func TestSummarizeICT(t *testing.T) {
	tr := &Trace{NodeCount: 2, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 0},
		{A: 0, B: 1, Start: 10, End: 10},
		{A: 0, B: 1, Start: 30, End: 30},
	}}
	st, err := tr.SummarizeICT()
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 2 || math.Abs(st.Mean-15) > 1e-12 || st.Max != 20 {
		t.Fatalf("%+v", st)
	}
}

func TestSummarizeICTErrors(t *testing.T) {
	tr := &Trace{NodeCount: 2, Contacts: []Contact{{A: 0, B: 1, Start: 5, End: 5}}}
	if _, err := tr.SummarizeICT(); err == nil {
		t.Fatal("accepted trace with no repeated pair")
	}
	if _, err := tr.SessionICTStats(0); err == nil {
		t.Fatal("accepted non-positive session gap")
	}
}

// TestSyntheticTracesExponentialWithinSessions validates the generator
// against the paper's network model: within activity sessions the
// inter-contact times are exponential (CV ~ 1), while the pooled
// marginal is heavier-tailed because of the diurnal gaps — the exact
// structure the paper blames for the Infocom model gap (Sec. V-E).
func TestSyntheticTracesExponentialWithinSessions(t *testing.T) {
	tr, err := GenerateCambridge(rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// Within sessions: gaps below one hour are within the business day.
	within, err := tr.SessionICTStats(3600)
	if err != nil {
		t.Fatal(err)
	}
	if within.CV < 0.7 || within.CV > 1.3 {
		t.Fatalf("within-session CV = %v, want ~1 (exponential)", within.CV)
	}
	// Pooled marginal includes overnight silences: heavier tailed.
	pooled, err := tr.SummarizeICT()
	if err != nil {
		t.Fatal(err)
	}
	if pooled.CV <= within.CV {
		t.Fatalf("pooled CV %v not above within-session CV %v", pooled.CV, within.CV)
	}
	if pooled.Max < 12*3600 {
		t.Fatalf("pooled max gap %v s misses the overnight silence", pooled.Max)
	}
}

func TestInfocomSessionStructureVisibleInICT(t *testing.T) {
	tr, err := GenerateInfocom(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	within, err := tr.SessionICTStats(480) // inside an 8-minute burst
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := tr.SummarizeICT()
	if err != nil {
		t.Fatal(err)
	}
	// Burst contacts are dense (mean well under the burst length);
	// the pooled mean is dominated by inter-burst breaks.
	if within.Mean >= 480 {
		t.Fatalf("within-burst mean %v too large", within.Mean)
	}
	if pooled.Mean < 4*within.Mean {
		t.Fatalf("pooled mean %v vs within %v: session breaks not visible", pooled.Mean, within.Mean)
	}
}
