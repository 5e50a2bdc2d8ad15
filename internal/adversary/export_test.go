package adversary

import "testing"

// interruptAfterDraw runs body with every FastTrial panicking between
// its sender draw and the undo, and recovers the panic as the trial
// runner does.
func interruptAfterDraw(t *testing.T, body func()) {
	t.Helper()
	afterDraw = func() { panic("interrupted between draw and undo") }
	defer func() {
		afterDraw = nil
		if recover() == nil {
			t.Fatal("the interrupted trial did not panic")
		}
	}()
	body()
}
