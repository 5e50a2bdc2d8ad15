// Package knob holds the lean field scan's fixture declarations.
package knob

// Config tunes a Pump.
type Config struct {
	Rate  int // set by the command
	Burst int // set only by knob_test.go
	Depth int // set only by withDefaults
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 8
	}
	return c
}

// Stats counts what a Pump sent.
type Stats struct{ Sent int }

// Pump sends at its configured rate.
type Pump struct {
	cfg  Config
	stat Stats
}

// New returns a Pump tuned by cfg.
func New(cfg Config) *Pump { return &Pump{cfg: cfg.withDefaults()} }

// Send records one round and returns the running total. Pump.stat is
// written only through the nested selector p.stat.Sent.
func (p *Pump) Send() int {
	p.stat.Sent = p.stat.Sent + p.cfg.Rate + p.cfg.Burst + p.cfg.Depth
	return p.stat.Sent
}
