package cluster

// Self-healing discipline for the live tier: jittered exponential
// backoff for dials and registrations, and a per-peer circuit breaker
// so a dead or partitioned peer is probed on a cooldown instead of
// hammered on every attempt. Both are timing-only mechanisms — they
// decide when to try again, never what the protocol does — so they
// cannot perturb the deterministic delivered set.

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// The retry discipline of one logical operation (a registration, a
// contact preamble).
const (
	// retryBase is the first backoff sleep; each retry doubles it up to
	// retryMax, then full jitter in [1/2, 1] de-synchronizes the fleet.
	retryBase = 5 * time.Millisecond
	retryMax  = 200 * time.Millisecond
	// retryBudget caps the total wall time spent retrying one contact.
	retryBudget = 3 * time.Second
	// breakerThreshold consecutive failures to one peer trip its
	// breaker open; while open, attempts wait out breakerCooldown and
	// then probe half-open.
	breakerThreshold = 3
	breakerCooldown  = 150 * time.Millisecond
)

// backoff returns the sleep before retry number attempt (0-based),
// exponential with full jitter drawn from the daemon's timing stream.
func backoff(attempt int, jitter func() float64) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	return time.Duration(float64(d) * (0.5 + 0.5*jitter()))
}

// breaker is a per-peer circuit breaker. Closed: attempts flow.
// After breakerThreshold consecutive failures it opens for
// breakerCooldown; the first attempt after the cooldown is the
// half-open probe — success closes it, failure re-opens it.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// wait reports how long the breaker stays open from now (0 = attempts
// may flow).
func (b *breaker) wait(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now.Before(b.openUntil) {
		return b.openUntil.Sub(now)
	}
	return 0
}

func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	wasOpen := now.Before(b.openUntil)
	b.fails++
	tripped := b.fails >= breakerThreshold
	if tripped {
		b.openUntil = now.Add(breakerCooldown)
	}
	b.mu.Unlock()
	if tripped && !wasOpen {
		if c := obs.Active(); c != nil {
			c.Add(obs.BreakerOpens, 1)
		}
	}
}

// breakerFor returns (creating on first use) the breaker guarding addr.
func (d *Daemon) breakerFor(addr string) *breaker {
	d.retryMu.Lock()
	defer d.retryMu.Unlock()
	if d.breakers == nil {
		d.breakers = make(map[string]*breaker)
	}
	b, ok := d.breakers[addr]
	if !ok {
		b = &breaker{}
		d.breakers[addr] = b
	}
	return b
}

// jitterFloat draws one timing-jitter variate. The stream is seeded
// per daemon and guarded by retryMu: it only shapes sleep durations,
// never protocol decisions.
func (d *Daemon) jitterFloat() float64 {
	d.retryMu.Lock()
	defer d.retryMu.Unlock()
	if d.jitter == nil {
		d.jitter = rng.New(0x6261636b6f6666 ^ uint64(d.cfg.ID))
	}
	return d.jitter.Float64()
}

// sleepRetry sleeps d and counts the retry, unless the daemon is
// shutting down.
func (d *Daemon) sleepRetry(wait time.Duration) {
	if c := obs.Active(); c != nil {
		c.Add(obs.RetryAttempts, 1)
	}
	time.Sleep(wait)
}
