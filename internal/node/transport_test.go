package node

import (
	"fmt"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
)

// driveTransport executes one contact through the exported transport
// surface — the exact call sequence a cluster daemon performs over
// TCP: both sides expire and list their offers (the hello and its
// ack), then each direction reads the receiver's seen flags and
// frames, receives, and settles only the copies the receiver has not
// seen.
func driveTransport(nw *Network, x, y contact.NodeID, now float64) MeetReport {
	a, b := nw.Node(x), nw.Node(y)
	a.Expire(now)
	b.Expire(now)
	offers := [2][]string{a.OffersTo(y, nw.cfg.Spray), b.OffersTo(x, nw.cfg.Spray)}
	rep := MeetReport{Contacts: 1}
	for i, pair := range [][2]*Node{{a, b}, {b, a}} {
		sender, receiver := pair[0], pair[1]
		seen := receiver.Seen(offers[i])
		for j, id := range offers[i] {
			if seen[j] {
				continue
			}
			frame, hops, ok := sender.OfferFrame(id)
			if !ok {
				continue
			}
			v := receiver.Receive(frame, hops)
			rep.Count(v, sender.Settle(id, v))
		}
	}
	return rep
}

// addReport sums every field of r into sum.
func addReport(sum *MeetReport, r MeetReport) {
	sum.Contacts += r.Contacts
	sum.Offered += r.Offered
	sum.Transfers += r.Transfers
	sum.Deliveries += r.Deliveries
	sum.Rejected += r.Rejected
	sum.Refused += r.Refused
	sum.Dropped += r.Dropped
	sum.Truncated += r.Truncated
	sum.Corrupted += r.Corrupted
	sum.Retried += r.Retried
	sum.Duplicates += r.Duplicates
}

// TestTransportMatchesMeet drives the identical workload and contact
// sequence through Network.Meet and through the transport methods; the
// two runtimes must agree on every node's delivered set, hop counts,
// and the conserved counters, and on every field of each contact
// report. This pins the one custody exchange both tiers run, including
// the seen-flag inventory: Offered and Rejected agree only because
// both skip copies the receiver has already seen.
func TestTransportMatchesMeet(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		messages int
	}{
		{"spray", Config{Nodes: 6, GroupSize: 2, Seed: 99, Spray: true}, 5},
		{"backpressure", Config{Nodes: 6, GroupSize: 2, Seed: 99, Spray: true, BufferLimit: 2, ReofferLimit: 2}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testTransportMatchesMeet(t, tc.cfg, tc.messages)
		})
	}
}

func testTransportMatchesMeet(t *testing.T, cfg Config, messages int) {
	n, seed := cfg.Nodes, cfg.Seed
	build := func() *Network {
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < messages; i++ {
			src := contact.NodeID(i % n)
			dst := contact.NodeID((i + 3) % n)
			spec := SendSpec{
				Dst:     dst,
				Payload: []byte(fmt.Sprintf("parity-%d", i)),
				Relays:  1,
				Copies:  2,
				ID:      fmt.Sprintf("%032x", i+1),
			}
			if _, err := nw.Node(src).Send(spec, rng.New(seed).SplitN("path", i)); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}
	meetNW, transportNW := build(), build()

	// A deterministic pseudo-random contact sequence over all pairs.
	var meetSum MeetReport
	cs := rng.New(5).Split("contacts")
	for step := 0; step < 60; step++ {
		x := contact.NodeID(cs.IntN(n))
		y := contact.NodeID(cs.IntN(n - 1))
		if y >= x {
			y++
		}
		now := float64(step)
		m, tr := meetNW.Meet(x, y, now), driveTransport(transportNW, x, y, now)
		if m != tr {
			t.Fatalf("step %d (%d meets %d) reports diverged:\nmeet:      %+v\ntransport: %+v", step, x, y, m, tr)
		}
		addReport(&meetSum, m)
	}
	if meetSum.Deliveries == 0 {
		t.Fatalf("vacuous workload: no deliveries (%+v)", meetSum)
	}
	if cfg.ReofferLimit > 0 && (meetSum.Refused == 0 || meetSum.Dropped == 0) {
		t.Fatalf("back-pressure case exercised no refusals or drops: %+v", meetSum)
	}

	for v := 0; v < n; v++ {
		id := contact.NodeID(v)
		ms, ts := meetNW.Node(id).Stats(), transportNW.Node(id).Stats()
		if ms.Sent != ts.Sent || ms.Forwarded != ts.Forwarded ||
			ms.Carried != ts.Carried || ms.Delivered != ts.Delivered ||
			ms.Refused != ts.Refused || ms.Expired != ts.Expired ||
			ms.BackpressureDropped != ts.BackpressureDropped {
			t.Fatalf("node %d stats diverged:\nmeet:      %+v\ntransport: %+v", v, ms, ts)
		}
		mr, tr := meetNW.Node(id).DeliveryRecords(), transportNW.Node(id).DeliveryRecords()
		if len(mr) != len(tr) {
			t.Fatalf("node %d delivered %d vs %d messages", v, len(mr), len(tr))
		}
		for i := range mr {
			if mr[i] != tr[i] {
				t.Fatalf("node %d delivery %d diverged: %+v vs %+v", v, i, mr[i], tr[i])
			}
		}
		if meetNW.Node(id).BufferLen() != transportNW.Node(id).BufferLen() {
			t.Fatalf("node %d buffer %d vs %d", v, meetNW.Node(id).BufferLen(), transportNW.Node(id).BufferLen())
		}
	}
}
