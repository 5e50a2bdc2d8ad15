package cluster

import "time"

// Hooks for the external cluster_test package's connection-lifecycle
// tests.

// SetListenAddr sets the address the daemon listens on from its next
// Restart.
func (d *Daemon) SetListenAddr(addr string) { d.cfg.ListenAddr = addr }

// PreloadBreakerFailures records n failed attempts on the breaker
// guarding addr, as if that many contact attempts to it had failed.
func (d *Daemon) PreloadBreakerFailures(addr string, n int) {
	br := d.breakerFor(addr)
	for i := 0; i < n; i++ {
		br.failure(time.Now())
	}
}

// BreakerThreshold is the number of consecutive failures that opens a
// peer's breaker.
const BreakerThreshold = breakerThreshold
