package groups

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/onion"
	"repro/internal/rng"
)

// TestAssignmentRoundTrip proves a client-side view rebuilt from the
// wire assignment is structurally identical to the origin partition.
func TestAssignmentRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, g int }{{12, 4}, {20, 5}, {7, 3}, {5, 5}} {
		origin, err := NewPartition(tc.n, tc.g, rng.New(42).Split("partition"))
		if err != nil {
			t.Fatal(err)
		}
		view, err := NewFromAssignment(origin.Assignment(), tc.g)
		if err != nil {
			t.Fatalf("n=%d g=%d: %v", tc.n, tc.g, err)
		}
		if err := view.Validate(); err != nil {
			t.Fatal(err)
		}
		if view.N() != origin.N() || view.NumGroups() != origin.NumGroups() {
			t.Fatalf("shape mismatch: %d/%d vs %d/%d",
				view.N(), view.NumGroups(), origin.N(), origin.NumGroups())
		}
		for v := 0; v < tc.n; v++ {
			if view.GroupOf(contact.NodeID(v)) != origin.GroupOf(contact.NodeID(v)) {
				t.Fatalf("node %d assigned differently", v)
			}
		}
	}
}

func TestNewFromAssignmentRejects(t *testing.T) {
	cases := []struct {
		name   string
		assign []onion.GroupID
		g      int
	}{
		{"empty", nil, 2},
		{"negative group", []onion.GroupID{0, -1, 0}, 2},
		{"group beyond population", []onion.GroupID{0, 99, 0}, 2},
		{"hole in group ids", []onion.GroupID{0, 2, 0}, 2},
		{"oversized group", []onion.GroupID{0, 0, 0}, 2},
		{"bad size", []onion.GroupID{0, 0}, 0},
	}
	for _, tc := range cases {
		if _, err := NewFromAssignment(tc.assign, tc.g); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestInstallSymmetricKeys proves an externally keyed view
// interoperates with an origin directory holding the same keys: an
// onion layer sealed by one side opens on the other.
func TestInstallSymmetricKeys(t *testing.T) {
	origin, err := NewPartition(10, 3, rng.New(7).Split("partition"))
	if err != nil {
		t.Fatal(err)
	}
	groupKeys := make(map[onion.GroupID][]byte, origin.NumGroups())
	for gid := 0; gid < origin.NumGroups(); gid++ {
		key, err := onion.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		groupKeys[onion.GroupID(gid)] = key
	}
	nodeKeys := make([][]byte, origin.N())
	for v := range nodeKeys {
		key, err := onion.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		nodeKeys[v] = key
	}
	if err := origin.InstallSymmetricKeys(groupKeys, nodeKeys); err != nil {
		t.Fatal(err)
	}
	view, err := NewFromAssignment(origin.Assignment(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.InstallSymmetricKeys(groupKeys, nodeKeys); err != nil {
		t.Fatal(err)
	}

	sealer, err := origin.GroupCipher(0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sealer.Seal([]byte("cross-process layer"))
	if err != nil {
		t.Fatal(err)
	}
	member := view.Members(0)[0]
	opener, err := view.MemberCipher(member, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := opener.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "cross-process layer" {
		t.Fatal("layer did not round-trip across views")
	}
}

func TestInstallSymmetricKeysRejects(t *testing.T) {
	d, err := NewPartition(6, 2, rng.New(1).Split("partition"))
	if err != nil {
		t.Fatal(err)
	}
	good := make(map[onion.GroupID][]byte)
	for gid := 0; gid < d.NumGroups(); gid++ {
		key, _ := onion.GenerateKey()
		good[onion.GroupID(gid)] = key
	}
	nodeKeys := make([][]byte, 6)
	for v := range nodeKeys {
		nodeKeys[v], _ = onion.GenerateKey()
	}
	if err := d.InstallSymmetricKeys(good, nodeKeys[:5]); err == nil {
		t.Fatal("accepted short node-key table")
	}
	missing := map[onion.GroupID][]byte{0: good[0]}
	if err := d.InstallSymmetricKeys(missing, nodeKeys); err == nil {
		t.Fatal("accepted missing group key")
	}
	bad := map[onion.GroupID][]byte{}
	for gid, k := range good {
		bad[gid] = k
	}
	bad[0] = []byte("short")
	if err := d.InstallSymmetricKeys(bad, nodeKeys); err == nil {
		t.Fatal("accepted malformed key")
	}
}
