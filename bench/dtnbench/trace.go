package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// callID names one boundary the harness times: a call into a layer's
// exported API, a piece of the harness's own bookkeeping, or one of the
// two unattributed envelopes (a round and a pipeline trip).
type callID uint8

const (
	cRound callID = iota
	cTrip
	cBuild
	cPeel
	cUnwrap
	cMarshal
	cUnmarshal
	cFrameWrite
	cFrameRead
	cSend
	cMeet
	cRunSynthetic
	cDaemonSend
	cContact
	cInvariant
	cGenerate
	cInject
	cPoll
	cCheck
	numCalls
)

// callInfo describes each call. Layer "" is unattributed: its self time
// is the ledger residual. Sampled calls feed call_p50_us/call_p99_us, so
// they are timed even with tracing off.
var callInfo = [numCalls]struct {
	layer, name string
	sampled     bool
	counts      []string // names of the counts a span of this call carries
}{
	cRound:        {"", "round", true, nil},
	cTrip:         {"", "trip", true, nil},
	cBuild:        {"onion", "Build", false, nil},
	cPeel:         {"onion", "Peel", false, nil},
	cUnwrap:       {"onion", "Unwrap", false, nil},
	cMarshal:      {"bundle", "Bundle.Marshal", false, nil},
	cUnmarshal:    {"bundle", "Unmarshal", false, nil},
	cFrameWrite:   {"bundle", "WriteFrame", false, nil},
	cFrameRead:    {"bundle", "ReadFrame", false, nil},
	cSend:         {"node", "Node.Send", false, nil},
	cMeet:         {"node", "Network.Meet", true, []string{"transfers", "deliveries", "rejected", "refused", "dropped"}},
	cRunSynthetic: {"sim", "RunSynthetic", false, []string{"contacts"}},
	cDaemonSend:   {"cluster", "Daemon.Send", false, nil},
	cContact:      {"cluster", "Daemon.Contact", true, []string{"offered", "transfers", "deliveries", "rejected"}},
	cInvariant:    {"invariant", "Check", false, []string{"violations"}},
	cGenerate:     {"experiment", "Generate", true, nil},
	cInject:       {"harness", "inject", false, []string{"messages"}},
	cPoll:         {"harness", "poll", false, []string{"delivered"}},
	cCheck:        {"harness", "check", false, nil},
}

// layers lists the ledger's rows in print order; the residual is the
// unattributed rest of the wall.
var layers = []string{"onion", "bundle", "node", "sim", "cluster", "invariant", "experiment", "harness"}

// numClasses is the payload-class dimension of the call statistics; only
// the onion pipeline sets a class other than 0.
const numClasses = 3

const maxCounts = 5

type frame struct {
	c     callID
	id    int32
	start int64
	child int64 // time covered by closed child spans
}

type stat struct{ n, dur, self int64 }

type span struct {
	id, parent int32
	c          callID
	class      uint8
	start, end int64
	counts     [maxCounts]int32
}

type tok struct {
	c     callID
	depth int // stack index of the span's frame
	start int64
}

// tracer records spans from the harness's side of every layer boundary.
// It is used from one goroutine. With tracing off, begin and end cost a
// branch, plus a clock read for sampled calls.
type tracer struct {
	on    bool
	class int // payload class of the pipeline trip in flight
	epoch time.Time
	depth int
	stack [8]frame
	stats [numCalls][numClasses]stat
	ids   int32
	spans []span // raw spans, nil unless they are written out
	lost  int    // raw spans that did not fit
}

func newTracer(keepSpans int) *tracer {
	t := &tracer{epoch: time.Now()}
	if keepSpans > 0 {
		t.spans = make([]span, 0, keepSpans)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset clears the call statistics before a round.
func (t *tracer) reset() { t.stats = [numCalls][numClasses]stat{} }

// begin opens a span for call c.
func (t *tracer) begin(c callID) tok {
	if !t.on {
		if callInfo[c].sampled {
			return tok{c: c, start: t.now()}
		}
		return tok{c: c}
	}
	return t.push(c, t.now())
}

// next closes the innermost span and opens a sibling for call c at the
// same clock reading, so the few instructions between two consecutive
// calls count toward the second call rather than the residual.
func (t *tracer) next(c callID) tok {
	if !t.on {
		return t.begin(c)
	}
	now := t.now()
	t.pop(now, nil)
	return t.push(c, now)
}

// end closes k's span, and any span still open inside it, attaching the
// counts the call reported. It returns the span's duration (0 for an
// unsampled call with tracing off).
func (t *tracer) end(k tok, counts ...int) time.Duration {
	if !t.on {
		if callInfo[k.c].sampled {
			return time.Duration(t.now() - k.start)
		}
		return 0
	}
	now := t.now()
	for t.depth > k.depth+1 {
		t.pop(now, nil)
	}
	t.pop(now, counts)
	return time.Duration(now - k.start)
}

func (t *tracer) push(c callID, now int64) tok {
	t.ids++
	t.stack[t.depth] = frame{c: c, id: t.ids, start: now}
	t.depth++
	return tok{c: c, depth: t.depth - 1, start: now}
}

func (t *tracer) pop(now int64, counts []int) {
	t.depth--
	f := t.stack[t.depth]
	dur := now - f.start
	s := &t.stats[f.c][t.class]
	s.n++
	s.dur += dur
	s.self += dur - f.child
	var parent int32
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += dur
		parent = p.id
	}
	if t.spans == nil {
		return
	}
	if len(t.spans) == cap(t.spans) {
		t.lost++
		return
	}
	sp := span{id: f.id, parent: parent, c: f.c, class: uint8(t.class), start: f.start, end: now}
	for i := 0; i < len(counts) && i < maxCounts; i++ {
		sp.counts[i] = int32(counts[i])
	}
	t.spans = append(t.spans, sp)
}

// total sums a call's statistics over payload classes.
func (t *tracer) total(c callID) stat {
	var s stat
	for _, x := range t.stats[c] {
		s.n += x.n
		s.dur += x.dur
		s.self += x.self
	}
	return s
}

// meanNs is the mean duration of call c, over one class or (class < 0)
// all of them; 0 when the call never ran.
func (t *tracer) meanNs(c callID, class int) float64 {
	s := t.total(c)
	if class >= 0 {
		s = t.stats[c][class]
	}
	if s.n == 0 {
		return 0
	}
	return float64(s.dur) / float64(s.n)
}

// ledger splits one traced round's wall into layer self times. The
// residual is the self time of the unattributed envelopes, so the rows
// and the residual add up to the wall exactly.
type ledger struct {
	wall     int64
	self     map[string]int64
	residual int64
}

func (t *tracer) ledger() ledger {
	l := ledger{wall: t.total(cRound).dur, self: make(map[string]int64, len(layers))}
	for c := callID(0); c < numCalls; c++ {
		s := t.total(c)
		if layer := callInfo[c].layer; layer == "" {
			l.residual += s.self
		} else {
			l.self[layer] += s.self
		}
	}
	return l
}

func (l ledger) frac(layer string) float64 { return float64(l.self[layer]) / float64(l.wall) }

// writeSpans writes the kept raw spans as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		info := callInfo[sp.c]
		line := map[string]any{
			"id": sp.id, "parent": sp.parent, "layer": info.layer, "call": info.name,
			"start_ns": sp.start, "end_ns": sp.end,
		}
		if sp.c >= cBuild && sp.c <= cFrameRead {
			line["class"] = className[sp.class]
		}
		if len(info.counts) > 0 {
			counts := make(map[string]int32, len(info.counts))
			for i, name := range info.counts {
				counts[name] = sp.counts[i]
			}
			line["counts"] = counts
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if t.lost > 0 {
		if err := enc.Encode(map[string]int{"spans_lost": t.lost}); err != nil {
			return err
		}
	}
	return w.Flush()
}

// spanCap bounds the raw span buffer written by -spans (about 12 MB).
const spanCap = 1 << 18
