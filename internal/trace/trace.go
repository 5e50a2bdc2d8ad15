// Package trace provides the contact-trace substrate for the paper's
// real-trace evaluation (Sec. V-D, V-E).
//
// The paper replays the CRAWDAD cambridge/haggle traces (Cambridge =
// Experiment 2, 12 iMotes; Infocom 2005 = Experiment 3, 41 iMotes).
// Those files require a CRAWDAD account, so this package implements two
// things:
//
//  1. a parser/writer for the contact-trace exchange format (one
//     contact per line: "nodeA nodeB start end" in seconds), so real
//     trace files can be used when available, and
//  2. synthetic generators (GenerateCambridge, GenerateInfocom) that
//     reproduce the documented properties the paper's conclusions rest
//     on: node counts, contact density, second-granularity timestamps,
//     multi-day spans, and the business-hour/off-hour diurnal structure
//     that causes the Infocom delivery-rate plateau (Fig. 17).
//
// Times in this package are in seconds (the unit of Figs. 14 and 17).
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/contact"
)

// Contact is a single recorded meeting between two nodes.
type Contact struct {
	A, B  contact.NodeID
	Start float64 // seconds since trace start
	End   float64 // seconds; End >= Start
}

// Trace is an ordered sequence of contacts over a fixed node
// population.
type Trace struct {
	NodeCount int
	Contacts  []Contact // sorted by Start
}

// Validate checks node ranges, time sanity, and ordering.
func (t *Trace) Validate() error {
	if t.NodeCount <= 0 {
		return errors.New("trace: node count must be positive")
	}
	prev := 0.0
	for i, c := range t.Contacts {
		if c.A < 0 || int(c.A) >= t.NodeCount || c.B < 0 || int(c.B) >= t.NodeCount {
			return fmt.Errorf("trace: contact %d references node out of [0,%d)", i, t.NodeCount)
		}
		if c.A == c.B {
			return fmt.Errorf("trace: contact %d is a self-contact", i)
		}
		if c.Start < 0 || c.End < c.Start {
			return fmt.Errorf("trace: contact %d has invalid interval [%v,%v]", i, c.Start, c.End)
		}
		if c.Start < prev {
			return fmt.Errorf("trace: contact %d out of order (%v after %v)", i, c.Start, prev)
		}
		prev = c.Start
	}
	return nil
}

// Duration returns the time of the last contact start, i.e. the usable
// span of the trace.
func (t *Trace) Duration() float64 {
	if len(t.Contacts) == 0 {
		return 0
	}
	return t.Contacts[len(t.Contacts)-1].Start
}

// SortByStart sorts contacts chronologically (stable).
func (t *Trace) SortByStart() {
	slices.SortStableFunc(t.Contacts, func(a, b Contact) int {
		switch {
		case a.Start < b.Start:
			return -1
		case b.Start < a.Start:
			return 1
		}
		return 0
	})
}

// ParseReader reads a trace in the exchange format: one contact per
// line, "nodeA nodeB start end" (whitespace separated, seconds), with
// '#' comments and blank lines ignored. Node IDs may be arbitrary
// non-negative integers; they are compacted to [0, NodeCount).
func ParseReader(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var raw []struct {
		a, b       int
		start, end float64
	}
	ids := map[int]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node id %q: %w", lineNo, fields[0], err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node id %q: %w", lineNo, fields[1], err)
		}
		start, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad start time %q: %w", lineNo, fields[2], err)
		}
		end, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad end time %q: %w", lineNo, fields[3], err)
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("trace: line %d: negative node id", lineNo)
		}
		if a == b {
			return nil, fmt.Errorf("trace: line %d: self-contact", lineNo)
		}
		if math.IsNaN(start) || math.IsInf(start, 0) || math.IsNaN(end) || math.IsInf(end, 0) {
			return nil, fmt.Errorf("trace: line %d: non-finite contact interval [%v,%v]", lineNo, start, end)
		}
		if end < start {
			return nil, fmt.Errorf("trace: line %d: end %v before start %v", lineNo, end, start)
		}
		ids[a], ids[b] = true, true
		raw = append(raw, struct {
			a, b       int
			start, end float64
		}{a, b, start, end})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(raw) == 0 {
		return nil, errors.New("trace: no contacts")
	}
	// Compact node IDs.
	sortedIDs := make([]int, 0, len(ids))
	for id := range ids {
		sortedIDs = append(sortedIDs, id)
	}
	sort.Ints(sortedIDs)
	remap := make(map[int]contact.NodeID, len(sortedIDs))
	for i, id := range sortedIDs {
		remap[id] = contact.NodeID(i)
	}
	tr := &Trace{NodeCount: len(sortedIDs), Contacts: make([]Contact, 0, len(raw))}
	for _, c := range raw {
		tr.Contacts = append(tr.Contacts, Contact{A: remap[c.a], B: remap[c.b], Start: c.start, End: c.end})
	}
	tr.SortByStart()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteTo writes the trace in the exchange format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	written, err := fmt.Fprintf(bw, "# contact trace: %d nodes, %d contacts\n", t.NodeCount, len(t.Contacts))
	n += int64(written)
	if err != nil {
		return n, fmt.Errorf("trace: write header: %w", err)
	}
	for _, c := range t.Contacts {
		written, err = fmt.Fprintf(bw, "%d %d %s %s\n", c.A, c.B,
			strconv.FormatFloat(c.Start, 'f', -1, 64),
			strconv.FormatFloat(c.End, 'f', -1, 64))
		n += int64(written)
		if err != nil {
			return n, fmt.Errorf("trace: write contact: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("trace: flush: %w", err)
	}
	return n, nil
}

// EstimateRates fits the paper's exponential inter-contact model to the
// trace: lambda_{i,j} = (number of (i,j) contacts) / (trace duration).
// Rates are what the analytical models consume ("by training the
// traces, the accuracy of the proposed models can be improved",
// Sec. V-A).
func (t *Trace) EstimateRates() (*contact.Graph, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	d := t.Duration()
	if d <= 0 {
		return nil, errors.New("trace: zero duration, cannot estimate rates")
	}
	g, err := contact.New(t.NodeCount)
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	counts := make(map[[2]contact.NodeID]int)
	for _, c := range t.Contacts {
		a, b := c.A, c.B
		if a > b {
			a, b = b, a
		}
		counts[[2]contact.NodeID{a, b}]++
	}
	for pair, cnt := range counts {
		g.SetRate(pair[0], pair[1], float64(cnt)/d)
	}
	return g, nil
}

// Stats summarizes a trace.
type Stats struct {
	Nodes           int
	Contacts        int
	Duration        float64 // seconds
	ActivePairs     int     // pairs that meet at least once
	PairDensity     float64 // active pairs / all pairs
	ContactsPerPair float64 // mean contacts among active pairs
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	pairs := map[[2]contact.NodeID]int{}
	for _, c := range t.Contacts {
		a, b := c.A, c.B
		if a > b {
			a, b = b, a
		}
		pairs[[2]contact.NodeID{a, b}]++
	}
	all := t.NodeCount * (t.NodeCount - 1) / 2
	st := Stats{
		Nodes:       t.NodeCount,
		Contacts:    len(t.Contacts),
		Duration:    t.Duration(),
		ActivePairs: len(pairs),
	}
	if all > 0 {
		st.PairDensity = float64(len(pairs)) / float64(all)
	}
	if len(pairs) > 0 {
		st.ContactsPerPair = float64(len(t.Contacts)) / float64(len(pairs))
	}
	return st
}

// ContactsOf returns the indices into t.Contacts that involve node v,
// in chronological order.
func (t *Trace) ContactsOf(v contact.NodeID) []int {
	var out []int
	for i, c := range t.Contacts {
		if c.A == v || c.B == v {
			out = append(out, i)
		}
	}
	return out
}
