package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// sampleDenseRef is Sample's partial Fisher-Yates over a full n-entry
// table, the reference the virtual-table paths must reproduce.
func sampleDenseRef(s *Stream, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// checkMatchesDense reports where path(n, k) departs from the dense
// reference on twin streams: in the values returned or in the draws
// made, which the next Uint64 exposes.
func checkMatchesDense(t *testing.T, name string, path func(s *Stream, n, k int) []int, n, k int, seed uint64) {
	t.Helper()
	ref, got := New(seed).SplitN("sample", n*100+k), New(seed).SplitN("sample", n*100+k)
	want := sampleDenseRef(ref, n, k)
	if out := path(got, n, k); !slices.Equal(out, want) {
		t.Fatalf("%s(n=%d, k=%d) seed %d = %v, dense reference %v", name, n, k, seed, out, want)
	}
	if ref.Uint64() != got.Uint64() {
		t.Fatalf("%s(n=%d, k=%d) seed %d made different draws from the dense reference", name, n, k, seed)
	}
}

func TestSampleSmallMatchesDense(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for n := 1; n <= 80; n++ {
			for k := 1; k <= min(n, smallSample); k++ {
				checkMatchesDense(t, "sampleSmall", (*Stream).sampleSmall, n, k, seed)
			}
		}
	}
}

func TestSampleSparseMatchesDense(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for n := 1; n <= 80; n++ {
			for k := 1; k <= n; k++ {
				checkMatchesDense(t, "sampleSparse", (*Stream).sampleSparse, n, k, seed)
			}
		}
		checkMatchesDense(t, "sampleSparse", (*Stream).sampleSparse, 100000, 40, seed)
	}
}

// TestSampleMatchesDenseAtPathBoundaries runs Sample itself on each
// side of the limits that pick its table.
func TestSampleMatchesDenseAtPathBoundaries(t *testing.T) {
	for _, c := range [][2]int{
		{100, 3}, {100, 16}, {64, 16}, {65, 16}, {100, 17},
		{100000, 5}, {100000, 17}, {4096, 17}, {4097, 17}, {4097, 513},
	} {
		checkMatchesDense(t, "Sample", (*Stream).Sample, c[0], c[1], 7)
	}
}

// TestSampleTableMatchesDense runs one reused table through draws of
// every size, on both sides of Sample's path limits and over an n
// smaller than the table has grown to: each draw must match the dense
// reference in values and draws, and Undo must leave the identity.
func TestSampleTableMatchesDense(t *testing.T) {
	var tab SampleTable
	check := func(n, k int, seed uint64) {
		t.Helper()
		table := func(s *Stream, n, k int) []int {
			out := slices.Clone(tab.Draw(s, n, k))
			tab.Undo()
			return out
		}
		checkMatchesDense(t, "SampleTable.Draw", table, n, k, seed)
		for p, v := range tab.idx {
			if v != p {
				t.Fatalf("after Draw(n=%d, k=%d) and Undo, entry %d holds %d", n, k, p, v)
			}
		}
		if len(tab.swaps) != 0 {
			t.Fatalf("after Draw(n=%d, k=%d) and Undo, %d swaps remain", n, k, len(tab.swaps))
		}
	}
	for _, seed := range []uint64{1, 2} {
		for n := 1; n <= 60; n++ {
			for k := 0; k <= n; k++ {
				check(n, k, seed)
			}
		}
	}
	for _, c := range [][2]int{{100000, 5}, {100000, 17}, {4097, 513}, {5000, 2500}, {3, 3}, {100, 16}, {100, 17}} {
		check(c[0], c[1], 7)
	}
}

func TestSampleTableAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	var tab SampleTable
	s := New(1)
	tab.Draw(s, 5000, 2500)
	tab.Undo()
	for _, c := range [][2]int{{100, 1}, {100, 50}, {5000, 17}, {5000, 2500}} {
		got := testing.AllocsPerRun(100, func() {
			tab.Draw(s, c[0], c[1])
			tab.Undo()
		})
		if got != 0 {
			t.Errorf("a warm SampleTable's Draw(%d, %d) allocates %v times, want 0", c[0], c[1], got)
		}
	}
}

func TestSampleTableRefusesADrawBeforeUndo(t *testing.T) {
	var tab SampleTable
	s := New(1)
	tab.Draw(s, 10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Draw before Undo did not panic")
		}
	}()
	tab.Draw(s, 10, 3)
}

// splitLabels returns every string literal passed as the label of a
// Split, SplitN, SplitInto or SplitNInto call in the repository's Go
// files.
func splitLabels(t *testing.T) []string {
	t.Helper()
	var labels []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && name != ".." && name[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg := 0
			switch sel.Sel.Name {
			case "Split", "SplitN":
			case "SplitInto", "SplitNInto":
				arg = 1
			default:
				return true
			}
			if len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					labels = append(labels, s)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return labels
}

func TestSplitLabelHashMatchesFNV(t *testing.T) {
	fnv64a := func(label string) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(label))
		return h.Sum64()
	}
	labels := splitLabels(t)
	if !slices.Contains(labels, "fastsec") || !slices.Contains(labels, "trial") || !slices.Contains(labels, "senders") {
		t.Fatalf("the source scan found %d labels but missed known ones", len(labels))
	}
	t.Logf("%d label literals in the source", len(labels))
	s := New(31)
	for i := 0; i < 2000; i++ {
		b := make([]byte, s.IntN(40))
		for j := range b {
			b[j] = byte(s.IntN(256))
		}
		labels = append(labels, string(b))
	}
	for _, label := range labels {
		if got, want := labelHash(label), fnv64a(label); got != want {
			t.Fatalf("labelHash(%q) = %#x, hash/fnv 64a gives %#x", label, got, want)
		}
	}
}

// TestSplitSeedMaterialPinned pins the first output of a few child
// streams, so a change to how a split derives its seed (the label hash,
// the bit reversal, the PCG seeding) fails here before any golden does.
func TestSplitSeedMaterialPinned(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		name string
		s    *Stream
		want uint64
	}{
		{`Split("adv")`, r.Split("adv"), 0x2ee717accd3a04ce},
		{`SplitN("fastsec", 7)`, r.SplitN("fastsec", 7), 0xad324c8fd95b774c},
		{`Split("")`, r.Split(""), 0x2f13ac2fde8c1daa},
		{`New(42).SplitN("trial", 1000003).Split("positions")`, New(42).SplitN("trial", 1000003).Split("positions"), 0x2cb5f1179212b583},
	} {
		if got := c.s.Uint64(); got != c.want {
			t.Errorf("%s first output %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestSplitAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	s := New(1)
	for name, split := range map[string]func(){
		"Split":  func() { s.Split("positions") },
		"SplitN": func() { s.SplitN("fastsec", 12345) },
	} {
		if got := testing.AllocsPerRun(100, split); got != 1 {
			t.Errorf("%s allocates %v times, want 1", name, got)
		}
	}
}

// TestSplitIntoMatchesSplit reseeds one Stream in place, over a
// partly drained earlier child and over its own parent, and checks each
// reseed against the allocating split of the same label and index.
func TestSplitIntoMatchesSplit(t *testing.T) {
	const prefix = 16
	root := New(11)
	var dst Stream
	for _, label := range []string{"adv", "senders", "positions", ""} {
		root.SplitInto(&dst, label)
		if got, want := drain(&dst, prefix), drain(root.Split(label), prefix); !slices.Equal(got, want) {
			t.Fatalf("SplitInto(%q) differs from Split(%q)", label, label)
		}
		for _, n := range []int{0, 1, 1000003, 1 << 30} {
			root.SplitNInto(&dst, label, n)
			if got, want := drain(&dst, prefix), drain(root.SplitN(label, n), prefix); !slices.Equal(got, want) {
				t.Fatalf("SplitNInto(%q, %d) differs from SplitN(%q, %d)", label, n, label, n)
			}
		}
	}
	self := New(11)
	want := drain(New(11).SplitN("trial", 5).Split("adv"), prefix)
	self.SplitNInto(self, "trial", 5)
	self.SplitInto(self, "adv")
	if got := drain(self, prefix); !slices.Equal(got, want) {
		t.Fatal("splitting a stream into itself differs from the allocating splits")
	}
}

func TestSplitIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	s := New(1)
	var dst Stream
	for name, split := range map[string]func(){
		"SplitInto":  func() { s.SplitInto(&dst, "positions") },
		"SplitNInto": func() { s.SplitNInto(&dst, "fastsec", 12345) },
	} {
		if got := testing.AllocsPerRun(100, split); got != 0 {
			t.Errorf("%s allocates %v times, want 0", name, got)
		}
	}
}

func TestSampleSmallAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	s := New(1)
	for _, c := range [][2]int{{100, 1}, {100, 11}, {100, 16}, {100000, 16}} {
		got := testing.AllocsPerRun(100, func() { s.Sample(c[0], c[1]) })
		if got != 1 {
			t.Errorf("Sample(%d, %d) allocates %v times, want 1", c[0], c[1], got)
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool
