package cluster

// The exact wire-cost gate: a fixed seeded workload with deterministic
// message IDs replayed serially on a loopback cluster costs a pinned
// number of dials, frames and bytes. Every quantity is a function of
// the workload alone — onion sizes, the binary contact bodies (whose
// lengths follow from their ID and flag counts) and the contact
// sequence are fixed; only AES-GCM nonces vary, never lengths — so any
// change to what a contact puts on the wire moves these numbers and
// must be re-pinned deliberately. Frames: 709 hellos and 709 hello
// acks; 34 offers and their 34 verdicts; 21 ends of offers and 21
// contact-dones, one pair for each contact that moves something
// either way. Bytes count each frame's type and body, not its length
// prefix: hellos 709*25 + 23 listed IDs*33 = 18,484; acks 709*10 + 23
// flags + 29 IDs*33 = 8,070; ends of offers 21*5 + 29 flags = 134;
// offers 4,290 (unchanged onions); verdicts 34*2 = 68; contact-dones
// 21.

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
		"frames":    1528,
		"bytes":     31067,
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
