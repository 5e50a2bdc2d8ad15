// Command fixture is the production caller of the lean scan's fixture
// package.
package main

import (
	"time"

	"fixture/internal/clock"
)

func main() {
	var tk clock.Ticker = clock.New()
	println(tk.Tick().After(time.Time{}))
}
