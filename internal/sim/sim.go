// Package sim provides the DTN contact simulators: a synthetic engine
// that realizes the paper's network model (pairwise exponential
// inter-contact processes over a contact graph, Sec. III-A) and a
// replay engine for recorded contact traces (Sec. V-D/E). Both feed
// time-ordered contact events to a routing protocol.
package sim

import (
	"sort"

	"repro/internal/contact"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Protocol is a routing protocol driven by contact events. Protocols
// in package routing implement it structurally.
type Protocol interface {
	// OnContact handles a meeting of nodes a and b at time t. Both
	// forwarding directions may be exercised.
	OnContact(t float64, a, b contact.NodeID)
	// Done reports whether the protocol needs no further contacts
	// (e.g. the message has been delivered), allowing early exit.
	Done() bool
}

// RunSynthetic simulates the contact graph for [0, horizon]: every pair
// (i, j) with rate lambda_{i,j} > 0 meets at the points of a Poisson
// process with that rate (exponential inter-contact times, Eq. 2).
// Contacts are delivered to p in time order until the horizon passes or
// p.Done() reports true. It returns the number of contacts delivered.
//
// The engine is the des calendar-queue scheduler: each pair owns one
// self-rescheduling event, so the pending-event set stays at O(active
// pairs) and the RNG draw order (initial draws in Pairs order, then one
// reschedule draw per delivered contact) is identical to the original
// pair-heap implementation — existing artifacts reproduce byte for
// byte.
func RunSynthetic(g *contact.Graph, horizon float64, s *rng.Stream, p Protocol) int {
	if horizon <= 0 {
		return 0
	}
	sch := des.New()
	events := 0
	g.Pairs(func(i, j contact.NodeID, rate float64) {
		var fire func()
		fire = func() {
			if p.Done() {
				sch.Stop()
				return
			}
			p.OnContact(sch.Now(), i, j)
			events++
			if next := sch.Now() + s.Exp(rate); next <= horizon {
				sch.At(next, fire)
			}
		}
		if t := s.Exp(rate); t <= horizon {
			sch.At(t, fire)
		}
	})
	sch.Run()
	if c := obs.Active(); c != nil {
		c.Add(obs.SimSyntheticContacts, int64(events))
	}
	return events
}

// Replay feeds the trace contacts whose start times fall in
// [from, from+horizon] to p in order, stopping early when p.Done().
// Contact times are passed through unchanged (absolute trace time);
// callers measure delays relative to `from`. It returns the number of
// contacts delivered.
func Replay(tr *trace.Trace, from, horizon float64, p Protocol) int {
	if horizon <= 0 {
		return 0
	}
	end := from + horizon
	idx := sort.Search(len(tr.Contacts), func(i int) bool {
		return tr.Contacts[i].Start >= from
	})
	events := 0
	for ; idx < len(tr.Contacts); idx++ {
		c := tr.Contacts[idx]
		if c.Start > end {
			break
		}
		if p.Done() {
			break
		}
		p.OnContact(c.Start, c.A, c.B)
		events++
	}
	if c := obs.Active(); c != nil {
		c.Add(obs.SimReplayContacts, int64(events))
	}
	return events
}

// Fanout feeds one contact stream to several protocols simultaneously,
// so competing protocols are compared on the IDENTICAL contact
// realization (paired comparison, removing realization variance).
// Done reports true only when every constituent is done.
type Fanout []Protocol

// OnContact implements Protocol.
func (f Fanout) OnContact(t float64, a, b contact.NodeID) {
	for _, p := range f {
		if !p.Done() {
			p.OnContact(t, a, b)
		}
	}
}

// Done implements Protocol.
func (f Fanout) Done() bool {
	for _, p := range f {
		if !p.Done() {
			return false
		}
	}
	return true
}

// Lossy wraps a protocol with a per-contact failure probability: each
// contact event independently fails (is dropped before the inner
// protocol sees it) with probability prob, drawn from the given
// stream. This is the DES-harness face of the fault layer — a failed
// contact models a meeting too short or too disturbed to complete any
// hand-off. By Poisson thinning, dropping each contact of a rate-λ
// pair process with probability p yields a Poisson process of rate
// λ(1−p), which is how the closed-form model and the direct sampler
// account for the same fault rate.
//
// prob <= 0 returns the inner protocol unchanged (and consumes no
// stream state), so the zero-fault configuration is byte-identical to
// an unwrapped run.
func Lossy(inner Protocol, prob float64, s *rng.Stream) Protocol {
	if prob <= 0 {
		return inner
	}
	if prob > 1 {
		prob = 1
	}
	return &lossy{inner: inner, prob: prob, s: s}
}

type lossy struct {
	inner Protocol
	prob  float64
	s     *rng.Stream
}

// OnContact implements Protocol, dropping the contact on a failure
// draw. One Bernoulli draw is consumed per contact delivered to the
// wrapper, regardless of outcome, so schedules reproduce.
func (l *lossy) OnContact(t float64, a, b contact.NodeID) {
	if l.s.Bernoulli(l.prob) {
		if c := obs.Active(); c != nil {
			c.Add(obs.SimContactsDropped, 1)
		}
		return
	}
	l.inner.OnContact(t, a, b)
}

// Done implements Protocol.
func (l *lossy) Done() bool { return l.inner.Done() }
