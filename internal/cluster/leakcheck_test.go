package cluster

// Hand-rolled goroutine-leak gate for the whole package: every test
// spawns listeners, connection handlers, and replay workers; all of
// them must drain by the time the suite ends. (No external leak
// checker is available — the repo is dependency-free by policy.)

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	watched := signalWatcher()
	code := m.Run()
	if !watched && signalWatcher() {
		// The fuzzing engine starts os/signal's watcher goroutine, which
		// lives as long as the process: not a leak of this package.
		base++
	}
	if code == 0 {
		// Connection teardown is asynchronous; give handlers a grace
		// period to drain before declaring a leak.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > base {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "cluster: goroutine leak: %d at start, %d after tests\n%s\n",
				base, now, buf[:n])
			code = 1
		}
	}
	os.Exit(code)
}

// signalWatcher reports whether os/signal's watcher goroutine runs.
func signalWatcher() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("os/signal.loop"))
}
