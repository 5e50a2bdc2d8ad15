package cluster_test

// Directory blackout drills: the directory crashes mid-replay, contacts
// keep flowing on cached membership, and on its incarnation-bumped
// return every node reconciles — with exactly the same partition and
// keys, no double-issued Shamir shares, no orphaned custody, and zero
// bundles lost. This extends the PR 7 fault suite from daemon crashes
// to the bulletin board itself.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/contact"
	"repro/internal/rng"
)

// TestDirectoryBlackoutMidReplay crashes the directory halfway through
// a trace replay and restarts it afterwards. The delivered set must
// equal the chaos-free in-process reference — the blackout may not cost
// a single bundle — and the invariant checker proves it: conservation,
// exactly-once, share threshold across the directory's whole issuance
// history, and registration monotonicity across the restart.
func TestDirectoryBlackoutMidReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	const n = 5
	g := contact.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1.0/200)
		}
	}
	tr := cluster.RecordSynthetic(g, 2*3600, rng.New(17).Split("contacts"))
	if len(tr.Contacts) == 0 {
		t.Fatal("synthetic realization produced no contacts")
	}
	msgs := cluster.SyntheticWorkload(17, n, 10, 1, 2)
	cfg := cluster.Config{
		Nodes: n, GroupSize: 2, Seed: 17, Spray: true,
		Timeout: 5 * time.Second,
		// Keep revalidation attempts against the dark directory short so
		// the test observes the failure instead of waiting it out.
		JoinWait: 300 * time.Millisecond,
	}

	ref, err := cluster.RunReference(cfg, msgs, tr, 0, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.NetworkDeliveries(ref, msgs)
	if len(want) == 0 {
		t.Fatal("reference run delivered nothing — the drill would be vacuous")
	}

	c, err := cluster.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close cluster: %v", err)
		}
	}()
	if err := c.Inject(msgs); err != nil {
		t.Fatal(err)
	}

	// First half of the replay with the directory up.
	const split = 3600.5
	if _, err := c.Replay(tr, 0, split, 2); err != nil {
		t.Fatal(err)
	}
	preAudit := c.Dir().Audit()
	if preAudit.Welcomes != n {
		t.Fatalf("welcomes before blackout = %d, want %d", preAudit.Welcomes, n)
	}

	// Blackout: the directory crashes, losing its volatile member table
	// but keeping partition and key material.
	c.Dir().Stop()

	// A node cannot reconcile against a dark directory — the bounded
	// join window fails instead of hanging — and must not burn its
	// incarnation on the failed attempt.
	d0 := c.Nodes()[0]
	if err := d0.Revalidate(); err == nil {
		t.Fatal("revalidate succeeded against a dark directory")
	}
	if d0.Incarnation() != 1 {
		t.Fatalf("failed revalidation burned incarnation: %d", d0.Incarnation())
	}

	// The second half of the replay runs entirely in the dark: contacts
	// resolve peers from the daemons' own addresses.
	if _, err := c.Replay(tr, split, 2*3600-split, 2); err != nil {
		t.Fatalf("replay through the blackout: %v", err)
	}

	// The directory returns at the next incarnation; every node
	// revalidates: same view digest, bumped incarnations.
	if err := c.Dir().Restart(); err != nil {
		t.Fatal(err)
	}
	if inc := c.Dir().Audit().Incarnation; inc != 2 {
		t.Fatalf("directory incarnation after restart = %d, want 2", inc)
	}
	if err := c.Revalidate(); err != nil {
		t.Fatalf("reconciliation with the returned directory: %v", err)
	}
	for _, d := range c.Nodes() {
		if d.DirIncarnation() != 2 {
			t.Fatalf("node %d sees directory incarnation %d, want 2", d.ID(), d.DirIncarnation())
		}
		if d.Incarnation() != 2 {
			t.Fatalf("node %d incarnation after revalidate = %d, want 2", d.ID(), d.Incarnation())
		}
	}
	if got := c.Dir().Members(); got != n {
		t.Fatalf("members after reconciliation = %d, want %d", got, n)
	}

	// Zero loss: the delivered set matches the reference exactly, and
	// the invariants — including the share threshold over the full
	// issuance history (pre- and post-crash welcomes) — all hold.
	if d := want.Diff(c.Deliveries(msgs)); d != "" {
		t.Fatalf("blackout lost or changed deliveries: %s", d)
	}
	rep := invariant.Check(c, specOf(msgs))
	if !rep.Clean() {
		t.Fatalf("invariants violated across the blackout: %v", rep.Err())
	}
	postAudit := c.Dir().Audit()
	if postAudit.Welcomes != 2*n {
		t.Fatalf("welcomes after reconciliation = %d, want %d", postAudit.Welcomes, 2*n)
	}
	if postAudit.MinShares != postAudit.Threshold || postAudit.MaxShares != postAudit.Threshold {
		t.Fatalf("share issuance drifted across the restart: min %d max %d threshold %d",
			postAudit.MinShares, postAudit.MaxShares, postAudit.Threshold)
	}
}

// specOf builds the invariant checker's Spec from a cluster workload.
func specOf(msgs []cluster.Message) invariant.Spec {
	s := invariant.Spec{Messages: make([]invariant.Message, len(msgs))}
	for i, m := range msgs {
		s.Messages[i] = invariant.Message{ID: m.ID, Src: m.Src, Dst: m.Dst, Copies: m.Copies}
	}
	return s
}
