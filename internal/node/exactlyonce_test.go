package node_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/runner"
)

// trialDigest is one trial's observable outcome, comparable across
// worker counts.
type trialDigest struct {
	Delivered  int
	AppDeliver int // destination's app-layer delivery count
	Truncated  int
	Retried    int
	Duplicates int
}

// faultTrial runs one self-contained network under heavy truncation
// and duplicate injection and returns its digest. All randomness is
// derived from the trial index, so the digest is a pure function of
// (seed, index) — the MapTrials worker count cannot affect it.
func faultTrial(seed uint64, i int) (trialDigest, error) {
	const msgs = 3
	nw, err := node.NewNetwork(node.Config{
		Nodes: 10, GroupSize: 2,
		Seed: seed*1000003 + uint64(i),
		Faults: fault.Config{
			Truncate:  0.5,
			Duplicate: 0.5,
			Retries:   8,
		},
	})
	if err != nil {
		return trialDigest{}, err
	}
	dst := nw.Node(9)
	ids := make([]string, msgs)
	for m := range ids {
		id, err := nw.Node(0).Send(node.SendSpec{
			Dst: 9, Payload: []byte("exactly once"), Relays: 1, Copies: 1,
		}, rng.New(seed).SplitN("path", i*msgs+m))
		if err != nil {
			return trialDigest{}, err
		}
		ids[m] = id
	}
	g := contact.NewRandom(10, 1, 2, rng.New(seed).SplitN("graph", i))
	nw.DriveSynthetic(g, 1e7, rng.New(seed).SplitN("drive", i), func() bool {
		return dst.DeliveredCount() == msgs
	})
	for m, id := range ids {
		if _, ok := dst.Delivered(id); !ok {
			return trialDigest{}, fmt.Errorf("trial %d: message %d never delivered", i, m)
		}
	}
	stats := nw.TotalStats()
	return trialDigest{
		Delivered:  stats.Delivered,
		AppDeliver: dst.Stats().Delivered,
		Truncated:  stats.Truncated,
		Retried:    stats.Retried,
		Duplicates: stats.Duplicates,
	}, nil
}

// TestTruncationDeliversExactlyOnce is the satellite property test:
// N injected truncations with eventual success always deliver each
// message to the application layer exactly once — never zero, never
// twice — for seeds {1, 42} and MapTrials workers {1, 4}. The digests
// are additionally byte-compared across worker counts.
func TestTruncationDeliversExactlyOnce(t *testing.T) {
	const trials = 12
	for _, seed := range []uint64{1, 42} {
		var ref []trialDigest
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				digests, err := runner.MapTrials(workers, trials, func(i int) (trialDigest, error) {
					return faultTrial(seed, i)
				})
				if err != nil {
					t.Fatal(err)
				}
				var truncations int
				for i, d := range digests {
					if d.Delivered != 3 || d.AppDeliver != 3 {
						t.Fatalf("trial %d: delivered %d network-wide / %d at destination, want exactly 3", i, d.Delivered, d.AppDeliver)
					}
					truncations += d.Truncated
				}
				if truncations == 0 {
					t.Fatal("vacuous run: no truncation was ever injected")
				}
				if ref == nil {
					ref = digests
				} else if !reflect.DeepEqual(ref, digests) {
					t.Fatalf("fault schedule depends on worker count:\n 1 worker: %+v\n %d workers: %+v", ref, workers, digests)
				}
			})
		}
	}
}
