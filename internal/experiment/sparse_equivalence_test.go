package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/scenario"
)

// The sparse/dense equivalence suite closes the loop from the contact
// package's reference tests to the committed artifacts. The contact
// graph is now stored only as sorted adjacency rows; the dense n x n
// matrix it replaced survives here in two forms: the SHA-256 of every
// registry spec's figure JSON, generated on the dense-matrix code and
// committed in testdata/registry-sha256.txt, and a test-local matrix
// copy of each network's graph that Eq. 4 is recomputed from. The
// goldens under testdata/goldens pin five figures in full; the digests
// pin all of them, so a refactor below the figure layer (contact
// graph, samplers, DES) that moves any artifact by one byte fails
// here, at any worker count.

const registryDigestFile = "registry-sha256.txt"

func allSpecs() []scenario.Scenario {
	return append(FigureSpecs(), AblationSpecs()...)
}

// sparseEquivalenceOptions keeps the 24-spec sweep affordable while
// still driving every measure kind through GroupPathRates, the
// samplers, and the DES.
func sparseEquivalenceOptions(seed uint64, workers int) Options {
	return Options{Seed: seed, Runs: 12, SecurityRuns: 40, TraceRuns: 4, Workers: workers}
}

// readRegistryDigests parses "<spec> <seed> <sha256-hex>" lines;
// '#' comments and blank lines are skipped.
func readRegistryDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", registryDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", registryDigestFile, line)
		}
		key := fields[0] + " " + fields[1]
		if _, dup := pins[key]; dup {
			t.Fatalf("%s: duplicate entry %q", registryDigestFile, key)
		}
		pins[key] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// denseRates copies g into an n x n matrix, the layout of the deleted
// dense backend.
func denseRates(g *contact.Graph) [][]float64 {
	n := g.N()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	g.Pairs(func(i, j contact.NodeID, r float64) {
		m[i][j], m[j][i] = r, r
	})
	return m
}

// denseGroupPathRates is Eq. 4 read straight off the matrix, summing
// in the same member order as contact.GroupPathRates so the result is
// comparable bit for bit.
func denseGroupPathRates(m [][]float64, src, dst contact.NodeID, sets [][]contact.NodeID) []float64 {
	total := func(i contact.NodeID, set []contact.NodeID) float64 {
		sum := 0.0
		for _, j := range set {
			if j != i {
				sum += m[i][j]
			}
		}
		return sum
	}
	rates := []float64{total(src, sets[0])}
	for k := 1; k < len(sets); k++ {
		sum := 0.0
		for _, i := range sets[k-1] {
			sum += total(i, sets[k])
		}
		rates = append(rates, sum/float64(len(sets[k-1])))
	}
	last := 0.0
	for _, j := range sets[len(sets)-1] {
		if j != dst {
			last += m[j][dst]
		}
	}
	return append(rates, last)
}

// TestGroupPathRatesSparseDenseBitIdentical checks the model-facing
// hot path at every registry spec's base configuration: per-trial
// Eq. 4 rate vectors from the adjacency rows must match, bit for bit,
// the same sums taken over a dense matrix copy of the graph.
func TestGroupPathRatesSparseDenseBitIdentical(t *testing.T) {
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			for _, seed := range []uint64{1, 42} {
				cfg := spec.Base
				cfg.Seed = seed
				nw, err := core.NewNetwork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := denseRates(nw.Graph())
				for i := 0; i < 8; i++ {
					tr, err := nw.NewTrial(i)
					if err != nil {
						continue
					}
					want := denseGroupPathRates(m, tr.Src, tr.Dst, tr.Sets)
					if len(tr.Rates) != len(want) {
						t.Fatalf("seed %d trial %d: rate vector length %d vs %d", seed, i, len(tr.Rates), len(want))
					}
					for k := range want {
						if tr.Rates[k] != want[k] {
							t.Fatalf("seed %d trial %d hop %d: rows %v dense %v", seed, i, k, tr.Rates[k], want[k])
						}
					}
				}
			}
		})
	}
}

// TestSparseDenseByteIdenticalAcrossRegistry regenerates every figure
// and ablation in the registry at workers 1 and 4 and compares the
// SHA-256 of its JSON with the digest committed from the dense-matrix
// code. This is the acceptance gate for the single representation: no
// artifact may move by a single byte. On a mismatch the error carries
// the line to commit if the change in output is intended.
func TestSparseDenseByteIdenticalAcrossRegistry(t *testing.T) {
	pins := readRegistryDigests(t)
	seeds := []uint64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	known := map[string]bool{}
	for _, spec := range allSpecs() {
		for _, seed := range []uint64{1, 42} {
			known[fmt.Sprintf("%s %d", spec.ID, seed)] = true
		}
	}
	for key := range pins {
		if !known[key] {
			t.Errorf("%s pins %q, which is not a registry spec and seed", registryDigestFile, key)
		}
	}
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				key := fmt.Sprintf("%s %d", spec.ID, seed)
				want, ok := pins[key]
				for _, workers := range []int{1, 4} {
					fig, err := Generate(spec.ID, sparseEquivalenceOptions(seed, workers))
					if err != nil {
						t.Fatal(err)
					}
					js, err := fig.JSON()
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(js)
					got := hex.EncodeToString(sum[:])
					switch {
					case !ok:
						t.Errorf("%s has no entry; computed: %s %s", registryDigestFile, key, got)
					case got != want:
						t.Errorf("seed %d, workers %d: figure JSON drifted from the pinned digest; computed: %s %s",
							seed, workers, key, got)
					}
				}
			}
		})
	}
}

// TestRegistryCoversExpectedSpecCount pins the registry size the
// digest sweep relies on; growing the registry extends the sweep
// automatically, and this test just keeps the number honest.
func TestRegistryCoversExpectedSpecCount(t *testing.T) {
	if n := len(allSpecs()); n < 24 {
		t.Fatalf("registry has %d specs, expected at least 24", n)
	}
	seen := map[string]bool{}
	for _, s := range allSpecs() {
		if seen[s.ID] {
			t.Fatalf("duplicate spec id %q", s.ID)
		}
		seen[s.ID] = true
	}
}
