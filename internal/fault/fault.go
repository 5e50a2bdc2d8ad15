// Package fault is the deterministic fault-injection layer of the
// reproduction. The paper's models assume ideal contacts — every
// meeting completes a full onion hand-off — but its own trace
// evaluation shows delivery is driven by messy real contact structure,
// and deployed onion systems must survive truncated transfers and
// tampered onions (Ando et al.'s Π_t "bruised onion" design handles
// exactly delays and tampering). This package turns those hazards into
// a seed-driven, replayable schedule:
//
//   - contact truncation: a transfer aborts mid-bundle, leaving a torn
//     CRC frame the receiver must reject;
//   - bundle corruption: a byte flip that the Bundle-layer CRC or the
//     onion AEAD must catch, so a damaged onion is never delivered;
//   - duplicate redelivery: the same frame arrives twice and the
//     receiver must suppress the second copy;
//   - node churn: a participant crashes at a contact, dropping (or,
//     with persistent storage, preserving) its custody buffer.
//
// All decisions are drawn from an rng.Stream substream, so a fault
// schedule reproduces byte-for-byte for a fixed seed regardless of how
// the surrounding experiment is parallelized: consumers derive one
// Plan per deterministic scope (one per network, one per trial) and
// drive it in a deterministic order.
package fault

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// Config sets the independent fault probabilities. The zero value
// injects nothing and costs nothing on the hot path.
type Config struct {
	// Truncate is the per-hand-off probability that the transfer
	// aborts mid-frame, leaving the receiver a torn prefix of the
	// bundle (the CRC trailer, and usually part of the payload, is
	// missing). The sender notices the abort and may retry within the
	// same contact (Retries) before falling back to re-offering
	// custody at the next contact.
	Truncate float64
	// Corrupt is the per-hand-off probability of a transport-level
	// byte flip. The frame arrives complete but damaged; the Bundle
	// CRC (or, for a flip that survives framing, the onion AEAD)
	// must reject it. Corruption is dropped gracefully: the sender
	// keeps custody and re-offers at a later contact.
	Corrupt float64
	// Duplicate is the per-hand-off probability that a successfully
	// transferred frame is delivered a second time (retransmission
	// race). The receiver must suppress the duplicate: a message is
	// delivered to the application layer exactly once.
	Duplicate float64
	// Crash is the per-contact, per-participant probability that a
	// node crashes and restarts during the meeting. Unless
	// PreserveCustody is set, the restart loses the volatile custody
	// buffer; delivered payloads and duplicate-suppression state are
	// durable (a real node persists its delivered-ID log).
	Crash float64
	// PreserveCustody models nodes that persist custody buffers to
	// stable storage: a crash then keeps all carried onions.
	PreserveCustody bool
	// Retries is the in-contact retransmission budget after a
	// truncated hand-off. (Contacts are atomic events in the DES, so
	// the backoff between in-contact retries is immediate; the
	// custody re-offer at the next contact is the long backoff.)
	Retries int
}

// Validate checks probability ranges.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"truncate", c.Truncate},
		{"corrupt", c.Corrupt},
		{"duplicate", c.Duplicate},
		{"crash", c.Crash},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s probability %v out of [0,1]", p.name, p.v)
		}
	}
	if c.Retries < 0 {
		return fmt.Errorf("fault: negative retry budget %d", c.Retries)
	}
	return nil
}

// handoffEnabled reports whether any per-hand-off class can fire.
func (c Config) handoffEnabled() bool {
	return c.Truncate > 0 || c.Corrupt > 0 || c.Duplicate > 0
}

// Uniform is the canonical single-knob fault mix used by the -faults
// CLI flag and the ablation-faults experiment: transfers truncate and
// corrupt at the given rate, duplicate at half of it, and nodes crash
// at a tenth of it, with a two-retry in-contact budget. rate 0 returns
// the zero Config.
func Uniform(rate float64) Config {
	if rate <= 0 {
		return Config{}
	}
	return Config{
		Truncate:  rate,
		Corrupt:   rate,
		Duplicate: rate / 2,
		Crash:     rate / 10,
		Retries:   2,
	}
}

// Handoff is the planned fate of one hand-off attempt. At most one of
// Truncate/Corrupt is set; Duplicate is only set for intact transfers.
type Handoff struct {
	Truncate  bool
	Cut       int // bytes kept of the torn frame, in [0, frameLen)
	Corrupt   bool
	Flip      int // offset of the flipped byte, in [0, frameLen)
	Duplicate bool
}

// Plan is one deterministic fault schedule: a Config bound to a random
// substream. Methods are safe for concurrent use, but draws are
// consumed in calling order — drive contacts sequentially (as every
// experiment in this repository does) for a reproducible schedule.
type Plan struct {
	cfg Config

	mu sync.Mutex
	s  *rng.Stream
}

// NewPlan binds a validated config to its substream. It panics on an
// invalid config; validate user input with Config.Validate first.
func NewPlan(cfg Config, s *rng.Stream) *Plan {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if s == nil {
		panic("fault: nil stream")
	}
	return &Plan{cfg: cfg, s: s}
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Handoff draws the fate of one hand-off attempt of a frame of
// frameLen bytes. Classes are drawn in a fixed order (truncate,
// corrupt, duplicate), each consuming stream state only when its
// probability is positive, so enabling a new fault class never
// perturbs the schedule of the already-enabled ones at rate 0.
func (p *Plan) Handoff(frameLen int) Handoff {
	if !p.cfg.handoffEnabled() || frameLen == 0 {
		return Handoff{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var h Handoff
	if p.cfg.Truncate > 0 && p.s.Bernoulli(p.cfg.Truncate) {
		h.Truncate = true
		h.Cut = p.s.IntN(frameLen)
		return h
	}
	if p.cfg.Corrupt > 0 && p.s.Bernoulli(p.cfg.Corrupt) {
		h.Corrupt = true
		h.Flip = p.s.IntN(frameLen)
		return h
	}
	if p.cfg.Duplicate > 0 && p.s.Bernoulli(p.cfg.Duplicate) {
		h.Duplicate = true
	}
	return h
}

// Crash draws whether one contact participant crashes during the
// meeting. It consumes no stream state when churn is disabled.
func (p *Plan) Crash() bool {
	if p.cfg.Crash <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s.Bernoulli(p.cfg.Crash)
}

// CrashEnabled reports whether churn can fire at all, letting callers
// skip the crash roll entirely at rate 0.
func (p *Plan) CrashEnabled() bool { return p.cfg.Crash > 0 }

// Truncate returns a torn copy of the frame keeping the first keep
// bytes (clamped to [0, len(frame)]). The input is never mutated.
func Truncate(frame []byte, keep int) []byte {
	if keep < 0 {
		keep = 0
	}
	if keep > len(frame) {
		keep = len(frame)
	}
	return append([]byte(nil), frame[:keep]...)
}

// Flip returns a copy of the frame with one bit of the byte at pos
// flipped (pos is clamped into range). The input is never mutated.
func Flip(frame []byte, pos int) []byte {
	if len(frame) == 0 {
		return nil
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= len(frame) {
		pos = len(frame) - 1
	}
	out := append([]byte(nil), frame...)
	out[pos] ^= 0x01
	return out
}
