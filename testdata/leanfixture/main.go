// Command fixture is the production caller of the lean scan's fixture
// packages.
package main

import (
	"time"

	"fixture/internal/clock"
	"fixture/internal/knob"
)

func main() {
	var tk clock.Ticker = clock.New()
	println(tk.Tick().After(time.Time{}))
	println(knob.New(knob.Config{Rate: 1}).Send())
}
