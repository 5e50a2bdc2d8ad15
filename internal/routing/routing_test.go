package routing

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
)

func twoGroupParams() Params {
	return Params{
		Src:    0,
		Dst:    7,
		Sets:   [][]contact.NodeID{{1, 2}, {3, 4}},
		Copies: 1,
	}
}

func TestParamsValidate(t *testing.T) {
	good := twoGroupParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Params){
		"src == dst":        func(p *Params) { p.Dst = p.Src },
		"negative endpoint": func(p *Params) { p.Src = -1 },
		"no groups":         func(p *Params) { p.Sets = nil },
		"empty group":       func(p *Params) { p.Sets = [][]contact.NodeID{{}} },
		"group holds src":   func(p *Params) { p.Sets = [][]contact.NodeID{{0}} },
		"group holds dst":   func(p *Params) { p.Sets = [][]contact.NodeID{{7}} },
		"zero copies":       func(p *Params) { p.Copies = 0 },
		"negative start":    func(p *Params) { p.StartTime = -1 },
	}
	for name, mutate := range cases {
		p := twoGroupParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestSingleCopyDeterministicWalk(t *testing.T) {
	o, err := NewOnion(twoGroupParams())
	if err != nil {
		t.Fatal(err)
	}
	// Contact with a node outside R_1: nothing happens.
	o.OnContact(1, 0, 3)
	if r := o.Result(); r.Transmissions != 0 {
		t.Fatalf("forwarded to non-member: %+v", r)
	}
	// Meet an R_1 member: forward.
	o.OnContact(2, 0, 1)
	// Holder at stage 1 meets an R_1 (not R_2) member: nothing.
	o.OnContact(3, 1, 2)
	// Meet an R_2 member: forward.
	o.OnContact(4, 1, 4)
	// Premature meeting with destination by a non-final holder was
	// already impossible; now the final holder meets dst: deliver.
	o.OnContact(5, 4, 7)

	r := o.Result()
	if !r.Delivered || r.Time != 5 {
		t.Fatalf("not delivered at t=5: %+v", r)
	}
	if r.Transmissions != 3 { // K+1 = 3
		t.Fatalf("transmissions = %d, want 3", r.Transmissions)
	}
	if len(r.Copies) != 1 {
		t.Fatalf("copies = %d", len(r.Copies))
	}
	wantVisits := []Visit{{0, 0}, {1, 1}, {4, 2}, {7, 3}}
	got := r.Copies[0].Visits
	if len(got) != len(wantVisits) {
		t.Fatalf("visits = %v", got)
	}
	for i := range wantVisits {
		if got[i] != wantVisits[i] {
			t.Fatalf("visit %d = %v, want %v", i, got[i], wantVisits[i])
		}
	}
	senders := r.Copies[0].Senders()
	if len(senders) != 3 || senders[0] != 0 || senders[1] != 1 || senders[2] != 4 {
		t.Fatalf("senders = %v", senders)
	}
	if !o.Done() {
		t.Fatal("protocol not done after delivery")
	}
}

func TestSingleCopyIgnoresContactsBeforeStart(t *testing.T) {
	p := twoGroupParams()
	p.StartTime = 100
	o, err := NewOnion(p)
	if err != nil {
		t.Fatal(err)
	}
	o.OnContact(50, 0, 1)
	if r := o.Result(); r.Transmissions != 0 {
		t.Fatal("forwarded before start time")
	}
	o.OnContact(150, 0, 1)
	if r := o.Result(); r.Transmissions != 1 {
		t.Fatal("did not forward after start time")
	}
}

func TestSingleCopyNoDirectDelivery(t *testing.T) {
	// The source meeting the destination must NOT deliver: anonymity
	// requires the onion path.
	o, err := NewOnion(twoGroupParams())
	if err != nil {
		t.Fatal(err)
	}
	o.OnContact(1, 0, 7)
	if r := o.Result(); r.Delivered || r.Transmissions != 0 {
		t.Fatalf("direct delivery happened: %+v", r)
	}
}

func TestReverseDirectionForwarding(t *testing.T) {
	// Contacts are symmetric: (member, holder) order must work too.
	o, err := NewOnion(twoGroupParams())
	if err != nil {
		t.Fatal(err)
	}
	o.OnContact(1, 2, 0) // member listed first
	if r := o.Result(); r.Transmissions != 1 {
		t.Fatalf("reverse-direction forward failed: %+v", r)
	}
}

func TestMultiCopyStrictTickets(t *testing.T) {
	p := twoGroupParams()
	p.Copies = 2
	p.RunToCompletion = true
	o, err := NewOnion(p)
	if err != nil {
		t.Fatal(err)
	}
	// Strict Algorithm 2: the source may hand copies only to R_1
	// members. Meeting an arbitrary node does nothing.
	o.OnContact(1, 0, 5)
	if r := o.Result(); r.Transmissions != 0 {
		t.Fatal("strict mode sprayed to a non-member")
	}
	o.OnContact(2, 0, 1) // ticket 1 -> node 1
	o.OnContact(3, 0, 1) // node 1 already has m: Forward() false
	if r := o.Result(); r.Transmissions != 1 {
		t.Fatalf("duplicate forward to a holder: %+v", o.Result())
	}
	o.OnContact(4, 0, 2) // ticket 2 -> node 2; source buffer empties
	o.OnContact(5, 0, 1) // source no longer holds m
	r := o.Result()
	if r.Transmissions != 2 || len(r.Copies) != 2 {
		t.Fatalf("after ticket exhaustion: %+v", r)
	}
	// Both copies progress independently.
	o.OnContact(6, 1, 3)
	o.OnContact(7, 2, 4)
	o.OnContact(8, 3, 7) // first delivery
	r = o.Result()
	if !r.Delivered || r.Time != 8 {
		t.Fatalf("delivery: %+v", r)
	}
	// Second copy stalls at the destination (Forward() false when dst
	// has m).
	o.OnContact(9, 4, 7)
	r = o.Result()
	if r.Transmissions != 5 {
		t.Fatalf("stalled copy transmitted: %d", r.Transmissions)
	}
	delivered := 0
	for _, c := range r.Copies {
		if c.Delivered {
			delivered++
		}
	}
	if delivered != 1 {
		t.Fatalf("%d copies delivered, want 1", delivered)
	}
}

func TestSprayModeHandsCopiesToAnyNode(t *testing.T) {
	p := twoGroupParams()
	p.Copies = 3
	p.Spray = true
	o, err := NewOnion(p)
	if err != nil {
		t.Fatal(err)
	}
	// Arbitrary node 5: sprayed (tickets 3 -> 2).
	o.OnContact(1, 0, 5)
	// Arbitrary node 6: sprayed (tickets 2 -> 1).
	o.OnContact(2, 0, 6)
	// Arbitrary node 3 (an R_2 member, but not R_1): with one ticket
	// left, no more spraying — the last copy is reserved for R_1.
	o.OnContact(3, 0, 3)
	r := o.Result()
	if r.Transmissions != 2 {
		t.Fatalf("spray count = %d, want 2", r.Transmissions)
	}
	// The sprayed relay routes into R_1 like a fresh source copy.
	o.OnContact(4, 5, 1)
	r = o.Result()
	if r.Transmissions != 3 {
		t.Fatalf("sprayed relay did not forward into R_1: %+v", r)
	}
	// Source's last ticket goes to an R_1 member directly.
	o.OnContact(5, 0, 2)
	r = o.Result()
	if r.Transmissions != 4 {
		t.Fatalf("source final forward failed: %+v", r)
	}
	// Sprayed copy path records the relay at stage 0.
	var sprayTrace *CopyTrace
	for i := range r.Copies {
		if len(r.Copies[i].Visits) >= 2 && r.Copies[i].Visits[1].Node == 5 {
			sprayTrace = &r.Copies[i]
		}
	}
	if sprayTrace == nil {
		t.Fatalf("no sprayed copy trace found: %+v", r.Copies)
	}
	if sprayTrace.Visits[1].Stage != 0 {
		t.Fatalf("sprayed relay stage = %d, want 0", sprayTrace.Visits[1].Stage)
	}
}

func TestSprayNeverToDestination(t *testing.T) {
	p := twoGroupParams()
	p.Copies = 5
	p.Spray = true
	o, err := NewOnion(p)
	if err != nil {
		t.Fatal(err)
	}
	o.OnContact(1, 0, 7)
	if r := o.Result(); r.Transmissions != 0 {
		t.Fatal("sprayed a copy to the destination")
	}
}

func TestDoneWhenAllCopiesStall(t *testing.T) {
	p := twoGroupParams()
	p.Copies = 1
	o, err := NewOnion(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Done() {
		t.Fatal("done before anything happened")
	}
	o.OnContact(1, 0, 1)
	o.OnContact(2, 1, 3)
	o.OnContact(3, 3, 7)
	if !o.Done() {
		t.Fatal("not done after delivery")
	}
}

func makeCompleteGraph(n int, seed uint64) *contact.Graph {
	return contact.NewRandom(n, 1, 360, rng.New(seed))
}

func TestSampleOnionDeterministic(t *testing.T) {
	g := makeCompleteGraph(20, 1)
	p := Params{Src: 0, Dst: 19, Sets: [][]contact.NodeID{{1, 2, 3}, {4, 5, 6}}, Copies: 3, Spray: true}
	a, err := SampleOnion(g, p, 600, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleOnion(g, p, 600, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Time != b.Time || a.Transmissions != b.Transmissions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSampleOnionValidation(t *testing.T) {
	g := makeCompleteGraph(10, 1)
	p := Params{Src: 0, Dst: 9, Sets: [][]contact.NodeID{{1}}, Copies: 1}
	if _, err := SampleOnion(g, p, 0, rng.New(1)); err == nil {
		t.Fatal("accepted zero deadline")
	}
	bad := p
	bad.Dst = 99
	if _, err := SampleOnion(g, bad, 10, rng.New(1)); err == nil {
		t.Fatal("accepted out-of-range destination")
	}
}

func TestSampleOnionRespectsDeadline(t *testing.T) {
	g := makeCompleteGraph(20, 3)
	p := Params{Src: 0, Dst: 19, Sets: [][]contact.NodeID{{1, 2}, {3, 4}, {5, 6}}, Copies: 1}
	for seed := uint64(0); seed < 50; seed++ {
		r, err := SampleOnion(g, p, 30, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if r.Delivered && r.Time > 30 {
			t.Fatalf("delivered at %v past deadline 30", r.Time)
		}
	}
}

func TestSampleOnionDeliveredPathShape(t *testing.T) {
	g := makeCompleteGraph(30, 5)
	sets := [][]contact.NodeID{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}}
	p := Params{Src: 0, Dst: 29, Sets: sets, Copies: 1}
	for seed := uint64(0); seed < 30; seed++ {
		r, err := SampleOnion(g, p, 100000, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Delivered {
			continue
		}
		c, ok := r.DeliveredCopy()
		if !ok {
			t.Fatal("delivered but no delivered copy")
		}
		// Path: src (stage 0), one node per group (stages 1..3), dst.
		if len(c.Visits) != 5 {
			t.Fatalf("path length %d, want 5: %v", len(c.Visits), c.Visits)
		}
		for k := 1; k <= 3; k++ {
			node := c.Visits[k].Node
			found := false
			for _, m := range sets[k-1] {
				if m == node {
					found = true
				}
			}
			if !found {
				t.Fatalf("visit %d node %d not in R_%d", k, node, k)
			}
			if c.Visits[k].Stage != k {
				t.Fatalf("visit %d stage %d", k, c.Visits[k].Stage)
			}
		}
		if c.Visits[4].Node != 29 {
			t.Fatalf("final visit %v, want dst", c.Visits[4])
		}
		if r.Transmissions != 4 { // K+1
			t.Fatalf("transmissions = %d, want 4", r.Transmissions)
		}
	}
}

func TestSampleOnionCostWithinBound(t *testing.T) {
	g := makeCompleteGraph(40, 7)
	sets := [][]contact.NodeID{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}}
	k := len(sets)
	for _, l := range []int{1, 2, 3, 5} {
		p := Params{Src: 0, Dst: 39, Sets: sets, Copies: l, Spray: true, RunToCompletion: true}
		for seed := uint64(0); seed < 20; seed++ {
			r, err := SampleOnion(g, p, 1e9, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			bound := 2*l - 1 + k*l
			if r.Transmissions > bound {
				t.Fatalf("L=%d: %d transmissions exceed bound %d", l, r.Transmissions, bound)
			}
		}
	}
}

func TestSampleOnionMoreCopiesFasterDelivery(t *testing.T) {
	g := makeCompleteGraph(50, 9)
	sets := [][]contact.NodeID{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}}
	meanDelay := func(l int) float64 {
		var sum float64
		var n int
		for seed := uint64(0); seed < 400; seed++ {
			p := Params{Src: 0, Dst: 49, Sets: sets, Copies: l, Spray: true}
			r, err := SampleOnion(g, p, 1e7, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if r.Delivered {
				sum += r.Time
				n++
			}
		}
		if n == 0 {
			t.Fatal("nothing delivered")
		}
		return sum / float64(n)
	}
	if d1, d5 := meanDelay(1), meanDelay(5); d5 >= d1 {
		t.Fatalf("L=5 delay %v not below L=1 delay %v", d5, d1)
	}
}

func TestEpidemicBasics(t *testing.T) {
	e, err := NewEpidemic(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.OnContact(1, 0, 1) // infect 1
	e.OnContact(2, 1, 2) // infect 2
	e.OnContact(3, 1, 2) // both infected: nothing
	e.OnContact(4, 2, 3) // deliver
	r := e.Result()
	if !r.Delivered || r.Time != 4 || r.Transmissions != 3 {
		t.Fatalf("%+v", r)
	}
	if len(e.infected) != 4 {
		t.Fatalf("infected = %d", len(e.infected))
	}
	if !e.Done() {
		t.Fatal("not done")
	}
	if _, err := NewEpidemic(1, 1); err == nil {
		t.Fatal("accepted src == dst")
	}
}

func TestSprayAndWaitBasics(t *testing.T) {
	p, err := NewSprayAndWait(0, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.OnContact(1, 0, 1) // spray (tickets 3->2)
	p.OnContact(2, 0, 2) // spray (tickets 2->1)
	p.OnContact(3, 0, 3) // no spray: last ticket kept
	p.OnContact(4, 1, 2) // relays never exchange
	r := p.Result()
	if r.Transmissions != 2 {
		t.Fatalf("sprays = %d, want 2", r.Transmissions)
	}
	p.OnContact(5, 2, 9) // relay 2 meets dst
	r = p.Result()
	if !r.Delivered || r.Time != 5 || r.Transmissions != 3 {
		t.Fatalf("%+v", r)
	}
	if _, err := NewSprayAndWait(0, 1, 0); err == nil {
		t.Fatal("accepted zero copies")
	}
}

func TestDirectBasics(t *testing.T) {
	d, err := NewDirect(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.OnContact(11, 2, 4)
	d.OnContact(12, 5, 2) // reversed order still works
	r := d.Result()
	if !r.Delivered || r.Time != 12 || r.Transmissions != 1 {
		t.Fatalf("%+v", r)
	}
}
