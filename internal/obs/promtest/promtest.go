// Package promtest is a test helper: a validating parser for the
// Prometheus text exposition (format 0.0.4) that obs serves, so tests
// can check a scrape for well-formedness and read its totals.
package promtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample: a metric name with its
// rendered label part (possibly empty) and value.
type Sample struct {
	Name   string // metric name without labels
	Labels string // raw label block including braces, "" when absent
	Value  float64
}

// Exposition is the parsed form of a Prometheus text scrape.
type Exposition struct {
	Types   map[string]string // metric family name -> counter|gauge|histogram
	Samples []Sample
}

// Value returns the value of the sample with the given full series
// name (name plus raw label block, e.g. `dtn_phase_runs_total{phase="run"}`).
func (e *Exposition) Value(series string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name+s.Labels == series {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseExposition parses and validates a Prometheus text-format scrape:
// well-formed HELP/TYPE/sample lines, no duplicate HELP or TYPE per
// family, every sample preceded by its family's TYPE, histogram bucket
// series cumulative with a +Inf bucket equal to _count. It returns the
// parsed samples for counter cross-checks.
func ParseExposition(data []byte) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string)}
	helps := make(map[string]bool)
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 1 || fields[0] == "" {
				return nil, fmt.Errorf("obs: line %d: malformed HELP", ln+1)
			}
			if helps[fields[0]] {
				return nil, fmt.Errorf("obs: line %d: duplicate HELP for %s", ln+1, fields[0])
			}
			helps[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE", ln+1)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("obs: line %d: unknown metric type %q", ln+1, typ)
			}
			if _, dup := exp.Types[name]; dup {
				return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %s", ln+1, name)
			}
			exp.Types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		if family := familyOf(s.Name, exp.Types); family == "" {
			return nil, fmt.Errorf("obs: line %d: sample %s has no preceding TYPE", ln+1, s.Name)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := exp.validateHistograms(); err != nil {
		return nil, err
	}
	return exp, nil
}

// parseSample splits `name{labels} value` or `name value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced label braces in %q", line)
		}
		s.Name = line[:i]
		s.Labels = line[i : j+1]
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" {
		return s, fmt.Errorf("sample with empty name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// familyOf resolves a sample name to its declared metric family,
// stripping the histogram series suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name {
			if types[base] == "histogram" {
				return base
			}
		}
	}
	return ""
}

// validateHistograms checks every histogram family for cumulative
// buckets and a +Inf bucket that equals _count.
func (e *Exposition) validateHistograms() error {
	type histState struct {
		les    []float64
		counts []float64
		inf    float64
		hasInf bool
		count  float64
	}
	hists := make(map[string]*histState)
	for name, typ := range e.Types {
		if typ == "histogram" {
			hists[name] = &histState{}
		}
	}
	for _, s := range e.Samples {
		if base := strings.TrimSuffix(s.Name, "_bucket"); base != s.Name && hists[base] != nil {
			h := hists[base]
			le := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `{le="`), `"}`)
			if le == "+Inf" {
				h.inf, h.hasInf = s.Value, true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("obs: histogram %s: bad le %q", base, le)
			}
			h.les = append(h.les, v)
			h.counts = append(h.counts, s.Value)
		}
		if base := strings.TrimSuffix(s.Name, "_count"); base != s.Name && hists[base] != nil {
			hists[base].count = s.Value
		}
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		if !h.hasInf {
			return fmt.Errorf("obs: histogram %s has no +Inf bucket", name)
		}
		if h.inf != h.count {
			return fmt.Errorf("obs: histogram %s: +Inf bucket %g != count %g", name, h.inf, h.count)
		}
		for i := 1; i < len(h.counts); i++ {
			if h.les[i] <= h.les[i-1] {
				return fmt.Errorf("obs: histogram %s: le bounds not increasing at %g", name, h.les[i])
			}
			if h.counts[i] < h.counts[i-1] {
				return fmt.Errorf("obs: histogram %s: bucket counts not cumulative at le=%g", name, h.les[i])
			}
		}
		if n := len(h.counts); n > 0 && h.counts[n-1] > h.inf {
			return fmt.Errorf("obs: histogram %s: finite bucket exceeds +Inf", name)
		}
	}
	return nil
}
