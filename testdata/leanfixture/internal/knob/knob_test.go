package knob

import "testing"

func TestBurst(t *testing.T) {
	if got := New(Config{Burst: 2}).Send(); got != 10 {
		t.Fatalf("Send() = %d, want 10", got)
	}
}
