package des

import (
	"math"
	"slices"
	"sort"
)

// ladderQueue is a calendar-style priority queue (a "ladder queue",
// after Tang, Goh & Thng 2005) with O(1) amortized push and pop.
//
// Layout: far-future events accumulate unsorted in `top`; when the
// sorted structures drain, top is spread across a rung of equal-width
// buckets (one bucket per pending event on average). Dequeueing sorts
// one bucket at a time into `bottom`, which is consumed front-first;
// an overfull bucket is recursively spread across a narrower child
// rung instead of being sorted wholesale. Each event is therefore
// touched a constant number of times between push and pop.
//
// Correctness does not depend on where float rounding places bucket
// boundaries. Every pending event is routed by a walk that uses one
// monotone index function per rung (floor((t-start)/width)), and a
// bucket is only ever consumed after an exact (time, seq) sort; since
// the index is monotone in t, events in bucket k never have larger
// times than events in bucket k+1 of the same rung, and descent into a
// child rung is gated on the parent's own index function, so the
// structures partition pending events without ever deciding relative
// order of two events by inconsistent arithmetic. The only direct time
// comparison is against topStart, which is used exactly for both
// routing into top and draining it.
type ladderQueue struct {
	size int // pending events across top, rungs and bottom

	// top: unsorted far-future events with time >= topStart.
	top            []event
	topMin, topMax float64
	topStart       float64

	// rungs: rungs[0] is the widest (spawned from top); rungs[d+1]
	// subdivides the bucket rungs[d+1].ownerIdx of rungs[d].
	rungs []*ladderRung

	// bottom: sorted ascending by (time, seq), consumed from botIdx.
	bottom []event
	botIdx int
}

const (
	// ladderThres is the bucket size above which a bucket is spread
	// into a child rung rather than sorted directly.
	ladderThres = 64
	// ladderMaxRungs caps rung recursion; a bucket that cannot spawn
	// another rung is sorted wholesale, degrading gracefully to
	// O(m log m) for pathological time distributions.
	ladderMaxRungs = 8
)

// ladderRung is one array of equal-width buckets starting at start.
// Buckets before cur are consumed (drained into bottom or spread into
// a child rung).
type ladderRung struct {
	width   float64
	start   float64
	cur     int
	buckets [][]event
	size    int
	// ownerIdx is the bucket index in the PARENT rung this rung was
	// spawned from (-1 for the rung spawned from top). New events
	// descend into this rung only when the parent's index function
	// maps them to ownerIdx.
	ownerIdx int
}

// rawIdx maps a time onto the rung's bucket axis with floor semantics
// (no clamping): negative for times below start.
func (r *ladderRung) rawIdx(t float64) int {
	return int(math.Floor((t - r.start) / r.width))
}

func (q *ladderQueue) push(e event) {
	if q.size == 0 {
		// Queue went empty: restart so pushes stay O(1) appends to top
		// instead of degenerating into sorted bottom inserts.
		q.top = q.top[:0]
		q.rungs = q.rungs[:0]
		q.bottom = q.bottom[:0]
		q.botIdx = 0
		q.topStart = e.time
	}
	q.size++
	if e.time >= q.topStart {
		if len(q.top) == 0 || e.time < q.topMin {
			q.topMin = e.time
		}
		if len(q.top) == 0 || e.time > q.topMax {
			q.topMax = e.time
		}
		q.top = append(q.top, e)
		return
	}
	// Walk the rung chain from widest to deepest. At each rung the
	// event either lands in a live bucket, descends into the child
	// subdividing an already-consumed bucket, or falls to bottom.
	for d := 0; d < len(q.rungs); d++ {
		r := q.rungs[d]
		idx := r.rawIdx(e.time)
		if idx >= len(r.buckets) {
			// Beyond the rung's nominal range: the last bucket is the
			// only structure between this rung and top, so it absorbs
			// the overflow (sorted before consumption). Clamp BEFORE
			// the liveness check — a fully-consumed rung must route the
			// event onward, never into a bucket that will not be
			// revisited.
			idx = len(r.buckets) - 1
		}
		if idx >= r.cur {
			r.buckets[idx] = append(r.buckets[idx], e)
			r.size++
			return
		}
		if d+1 < len(q.rungs) && idx == q.rungs[d+1].ownerIdx {
			continue // descend into the child rung
		}
		break // consumed region with no live child: imminent event
	}
	q.enqueueBottom(e)
}

// enqueueBottom adds an event destined for the sorted bottom. When no
// rung exists and bottom has grown past the bucket threshold — e.g. a
// burst of pushes below topStart into an otherwise empty queue — the
// bottom is converted into a rung first, keeping pushes O(1) amortized
// instead of degrading to O(n) sorted inserts.
func (q *ladderQueue) enqueueBottom(e event) {
	if len(q.rungs) == 0 && len(q.bottom)-q.botIdx >= ladderThres && q.bottomToRung(e) {
		return
	}
	q.insertBottom(e)
}

// bottomToRung spreads the pending bottom events plus e across a fresh
// rung (the queue has none). It refuses when the events cannot be
// subdivided, exactly like newChildRung.
func (q *ladderQueue) bottomToRung(e event) bool {
	evs := append([]event(nil), q.bottom[q.botIdx:]...)
	evs = append(evs, e)
	minT, maxT := evs[0].time, evs[0].time
	for _, v := range evs[1:] {
		if v.time < minT {
			minT = v.time
		}
		if v.time > maxT {
			maxT = v.time
		}
	}
	if minT == maxT {
		return false
	}
	width := (maxT - minT) / float64(len(evs))
	if !(width > 0) || minT+width == minT {
		return false
	}
	r := &ladderRung{width: width, start: minT, buckets: make([][]event, len(evs)+2), ownerIdx: -1}
	for _, v := range evs {
		r.place(v)
	}
	r.size = len(evs)
	q.rungs = append(q.rungs[:0], r)
	q.bottom = q.bottom[:0]
	q.botIdx = 0
	return true
}

// insertBottom places an event into the sorted bottom, preserving
// (time, seq) order among the unconsumed suffix.
func (q *ladderQueue) insertBottom(e event) {
	lo := q.botIdx
	pos := lo + sort.Search(len(q.bottom)-lo, func(k int) bool {
		return e.before(q.bottom[lo+k])
	})
	q.bottom = append(q.bottom, event{})
	copy(q.bottom[pos+1:], q.bottom[pos:])
	q.bottom[pos] = e
}

func (q *ladderQueue) pop() (event, bool) {
	if !q.ensureBottom() {
		return event{}, false
	}
	e := q.bottom[q.botIdx]
	q.bottom[q.botIdx] = event{} // release the callback reference
	q.botIdx++
	q.size--
	if q.botIdx >= len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.botIdx = 0
	}
	return e, true
}

// ensureBottom refills the sorted bottom from the rungs or the top
// until it holds the globally earliest pending events, and reports
// whether any event is pending.
func (q *ladderQueue) ensureBottom() bool {
	for q.botIdx >= len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.botIdx = 0
		switch {
		case len(q.rungs) > 0:
			q.refillFromRungs()
		case len(q.top) > 0:
			q.spawnFromTop()
		default:
			return false
		}
	}
	return true
}

// refillFromRungs advances the deepest rung: its next non-empty bucket
// is either sorted into bottom or, if overfull, spread into a child
// rung. Exhausted rungs are popped.
func (q *ladderQueue) refillFromRungs() {
	r := q.rungs[len(q.rungs)-1]
	if r.size == 0 {
		q.rungs = q.rungs[:len(q.rungs)-1]
		return
	}
	for r.cur < len(r.buckets) && len(r.buckets[r.cur]) == 0 {
		r.cur++
	}
	if r.cur >= len(r.buckets) {
		// Defensive: size and buckets disagree; drop the rung.
		q.rungs = q.rungs[:len(q.rungs)-1]
		return
	}
	k := r.cur
	b := r.buckets[k]
	r.buckets[k] = nil
	r.size -= len(b)
	r.cur++
	if len(b) > ladderThres && len(q.rungs) < ladderMaxRungs {
		if child, ok := newChildRung(r, k, b); ok {
			q.rungs = append(q.rungs, child)
			return
		}
	}
	sortEvents(b)
	q.bottom = b
	q.botIdx = 0
}

// spawnFromTop converts the unsorted top into the first rung, with one
// bucket per event on average, and raises topStart so new far-future
// events keep landing in top.
func (q *ladderQueue) spawnFromTop() {
	n := len(q.top)
	width := (q.topMax - q.topMin) / float64(n)
	if !(width > 0) || q.topMin+width == q.topMin {
		// All events effectively share one time: sort directly.
		sortEvents(q.top)
		q.bottom = q.top
		q.botIdx = 0
		q.top = nil
		q.topStart = q.topMax
		return
	}
	r := &ladderRung{width: width, start: q.topMin, buckets: make([][]event, n+2), ownerIdx: -1}
	for _, e := range q.top {
		r.place(e)
	}
	r.size = n
	q.rungs = append(q.rungs[:0], r)
	q.top = nil
	q.topStart = q.topMax
}

// newChildRung spreads an overfull bucket (index k of parent) across a
// narrower rung. It refuses (ok=false) when the events cannot be
// subdivided — width underflow or a single shared timestamp — in which
// case the caller sorts the bucket wholesale.
func newChildRung(parent *ladderRung, k int, b []event) (*ladderRung, bool) {
	width := parent.width / ladderThres
	start := parent.start + float64(k)*parent.width
	if !(width > 0) || start+width == start {
		return nil, false
	}
	minT, maxT := b[0].time, b[0].time
	for _, e := range b[1:] {
		if e.time < minT {
			minT = e.time
		}
		if e.time > maxT {
			maxT = e.time
		}
	}
	if minT == maxT {
		return nil, false
	}
	r := &ladderRung{
		width:    width,
		start:    start,
		buckets:  make([][]event, ladderThres+2),
		ownerIdx: k,
	}
	for _, e := range b {
		r.place(e)
	}
	r.size = len(b)
	return r, true
}

// place drops an event into the rung's bucket for its time, clamping
// stray indices (float rounding at range edges) into the valid range.
// Used only while building a rung, when every bucket is live.
func (r *ladderRung) place(e event) {
	idx := r.rawIdx(e.time)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.buckets) {
		idx = len(r.buckets) - 1
	}
	r.buckets[idx] = append(r.buckets[idx], e)
}

// sortEvents orders a bucket by (time, seq); seq is unique, so the
// order is total and the sort deterministic.
func sortEvents(b []event) {
	slices.SortFunc(b, func(x, y event) int {
		switch {
		case x.before(y):
			return -1
		case y.before(x):
			return 1
		}
		return 0
	})
}
