package cluster

// The exact wire-cost gate: a fixed seeded workload with deterministic
// message IDs replayed serially on a loopback cluster costs a pinned
// number of dials, frames and bytes. Every quantity is a function of
// the workload alone — onion sizes, JSON control bodies and the
// contact sequence are fixed; only AES-GCM nonces vary, never lengths —
// so any change to what a contact puts on the wire moves these numbers
// and must be re-pinned deliberately.

import (
	"testing"
	"time"

	"repro/internal/contact"
	"repro/internal/obs"
	"repro/internal/rng"
)

func TestContactWireCostPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP cluster")
	}
	const n, seed = 6, 7
	g := contact.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1.0/300)
		}
	}
	tr := RecordSynthetic(g, 4*3600, rng.New(seed).Split("contacts"))
	cfg := Config{Nodes: n, GroupSize: 2, Seed: seed, Spray: true, Timeout: 10 * time.Second}
	msgs := SyntheticWorkload(seed, n, 10, 1, 2)
	// An initiator dials each responder once and keeps the connection
	// for every later contact between the two.
	pairs := make(map[[2]contact.NodeID]bool)
	for _, ct := range tr.Contacts {
		if ct.A != ct.B && ct.Start <= 4*3600 {
			pairs[[2]contact.NodeID{ct.A, ct.B}] = true
		}
	}

	c, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Inject(msgs); err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	contacts, err := c.Replay(tr, 0, 4*3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A responder counts its last frame after writing it, so drain
	// every connection handler before reading the counters.
	for _, d := range c.Nodes() {
		d.Kill()
	}
	got := map[string]int64{
		"contacts":  int64(contacts),
		"dials":     col.Get(obs.ClusterDials),
		"frames":    col.Get(obs.ClusterFramesOut),
		"bytes":     col.Get(obs.ClusterBytesOut),
		"transfers": col.Get(obs.NodeHandoffs),
		"rejected":  col.Get(obs.NodeRejected),
	}
	obs.Install(nil) // the in-process reference must not add to col

	ref, err := RunReference(cfg, msgs, tr, 0, 4*3600)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Subset(c.TotalStats()), Subset(ref.TotalStats()); got != want || want.Delivered == 0 {
		t.Fatalf("cluster stats %+v, reference %+v", got, want)
	}
	t.Logf("wire cost: %v", got)
	want := map[string]int64{
		"contacts":  709,
		"dials":     int64(len(pairs)), // one per initiator/responder pair: no retries on a clean loopback
		"frames":    2152,
		"bytes":     82110,
		"transfers": 34,
		// Without buffer limits or faults every rejection would be a
		// copy the receiver had already seen; the preamble skips them.
		"rejected": 0,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d, want %d", k, got[k], w)
		}
	}
}
