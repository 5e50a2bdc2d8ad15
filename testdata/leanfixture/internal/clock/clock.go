// Package clock holds the lean scan's fixture declarations.
package clock

import "time"

// Ticker is how the command reads a Stamp.
type Ticker interface{ Tick() time.Time }

// Stamp is a point in time.
type Stamp struct{ t time.Time }

// New returns the current Stamp.
func New() *Stamp { return &Stamp{t: time.Now()} }

// Tick satisfies Ticker; no code calls it on a Stamp directly.
func (s *Stamp) Tick() time.Time { return s.t }

// After has no caller; only time.Time.After shares its name.
func (s *Stamp) After(u *Stamp) bool { return s.t.After(u.t) }
