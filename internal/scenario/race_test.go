//go:build race

package scenario

// The race detector's instrumentation allocates on its own schedule, so
// allocation-count gates skip under -race.
func init() { raceEnabled = true }
