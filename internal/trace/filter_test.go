package trace

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
)

func filterFixture() *Trace {
	return &Trace{NodeCount: 5, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 1},
		{A: 0, B: 4, Start: 5, End: 6}, // 4 = "stationary"
		{A: 1, B: 2, Start: 10, End: 11},
		{A: 2, B: 4, Start: 15, End: 16}, // stationary again
		{A: 0, B: 1, Start: 20, End: 21},
	}}
}

func TestFilterNodesExcludesAndCompacts(t *testing.T) {
	tr := filterFixture()
	out, err := tr.FilterNodes(func(v contact.NodeID) bool { return v != 4 })
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount != 3 {
		t.Fatalf("NodeCount = %d, want 3 (compacted)", out.NodeCount)
	}
	if len(out.Contacts) != 3 {
		t.Fatalf("contacts = %d, want 3", len(out.Contacts))
	}
	for _, c := range out.Contacts {
		if int(c.A) >= 3 || int(c.B) >= 3 {
			t.Fatalf("uncompacted id in %+v", c)
		}
	}
}

func TestFilterNodesErrors(t *testing.T) {
	tr := filterFixture()
	if _, err := tr.FilterNodes(nil); err == nil {
		t.Fatal("accepted nil predicate")
	}
	if _, err := tr.FilterNodes(func(contact.NodeID) bool { return false }); err == nil {
		t.Fatal("accepted empty result")
	}
}

func TestFilterPipelineOnSynthetic(t *testing.T) {
	// Realistic use: drop the least-connected third of an Infocom-like
	// trace's nodes and verify the result still routes.
	tr, err := GenerateInfocom(rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a data-driven threshold: strictly above the minimum per-node
	// contact count, so at least one node is dropped and most are kept.
	counts := map[contact.NodeID]int{}
	for _, c := range tr.Contacts {
		counts[c.A]++
		counts[c.B]++
	}
	minCount := 1 << 30
	for _, c := range counts {
		if c < minCount {
			minCount = c
		}
	}
	out, err := tr.FilterNodes(func(v contact.NodeID) bool { return counts[v] > minCount })
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount == 0 || out.NodeCount >= tr.NodeCount {
		t.Fatalf("filter kept %d of %d nodes", out.NodeCount, tr.NodeCount)
	}
	if _, err := out.EstimateRates(); err != nil {
		t.Fatal(err)
	}
}

func TestKeepBusiest(t *testing.T) {
	tr := filterFixture()
	// Contact counts: node 0 -> 3, node 1 -> 3, node 2 -> 2, node 4 -> 2.
	out, err := tr.KeepBusiest(3)
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount != 3 {
		t.Fatalf("NodeCount = %d, want 3", out.NodeCount)
	}
	// Nodes 0, 1 (busiest) and 2 (tie with 4, lower ID wins) survive;
	// only contacts among them remain.
	if len(out.Contacts) != 3 {
		t.Fatalf("contacts = %d, want 3", len(out.Contacts))
	}
	for _, c := range out.Contacts {
		if int(c.A) >= 3 || int(c.B) >= 3 {
			t.Fatalf("uncompacted node in %+v", c)
		}
	}
	// At or below the requested size: unchanged.
	same, err := out.KeepBusiest(10)
	if err != nil {
		t.Fatal(err)
	}
	if same != out {
		t.Fatal("small trace was rebuilt")
	}
	if _, err := tr.KeepBusiest(1); err == nil {
		t.Fatal("single-node trace accepted")
	}
}
