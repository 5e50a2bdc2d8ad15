package cluster

// The differential harness: the same workload, trace, and seed run
// through the in-process runtime (node.Network driven by sim.Replay)
// and through the live cluster must deliver the identical message set
// — same IDs, same destinations, same hop counts — and agree on the
// conserved stats. Three pieces make the comparison exact:
//
//   - deterministic message IDs (SendSpec.ID) so deliveries are
//     identifiable across tiers;
//   - shared relay-selection substreams (PathStream) so both tiers
//     build the same onion for message i;
//   - the same partition seed, so group structure agrees.
//
// Stats compared are the conserved subset (Sent, Forwarded, Carried,
// Delivered). Both tiers skip copies the receiver has already seen —
// the in-process sender reads the receiver's seen log, the socket
// sender the seen flags of the contact preamble — so seen rejections
// do not occur in either.
//
// The in-process reference run, the delivered-set comparison and the
// workload injection (Cluster.Inject) are test-only and live in
// reference_test.go.

import (
	"fmt"

	"repro/internal/contact"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is one workload entry, realizable on any tier.
type Message struct {
	Index   int // position in the workload; selects the path substream
	Src     contact.NodeID
	Dst     contact.NodeID
	Relays  int
	Copies  int
	Payload []byte
	ID      string // 32 hex characters, deterministic per (seed, index)
}

// PathStream returns the relay-selection substream for workload
// message i. Every tier — reference network, cluster daemon, any
// future backend — must draw message i's path from this stream for
// routing to agree.
func PathStream(seed uint64, i int) *rng.Stream {
	return rng.New(seed).SplitN("cluster-path", i)
}

// messageID derives the deterministic 32-hex-character message ID for
// workload entry (seed, index).
func messageID(seed uint64, i int) string {
	return fmt.Sprintf("%016x%016x", seed, uint64(i))
}

// SyntheticWorkload derives count messages over n nodes from the
// workload substream of seed: uniformly random distinct (src, dst)
// pairs, fixed relay/copy counts, deterministic IDs and payloads.
func SyntheticWorkload(seed uint64, n, count, relays, copies int) []Message {
	ws := rng.New(seed).Split("cluster-workload")
	msgs := make([]Message, count)
	for i := range msgs {
		src := contact.NodeID(ws.IntN(n))
		dst := contact.NodeID(ws.IntN(n - 1))
		if dst >= src {
			dst++
		}
		msgs[i] = Message{
			Index:   i,
			Src:     src,
			Dst:     dst,
			Relays:  relays,
			Copies:  copies,
			Payload: []byte(fmt.Sprintf("cluster-msg-%04d", i)),
			ID:      messageID(seed, i),
		}
	}
	return msgs
}

// RecordSynthetic realizes the synthetic contact process (the paper's
// pairwise exponential model) as a concrete trace, so the identical
// contact sequence can drive both the in-process tier and the live
// cluster.
func RecordSynthetic(g *contact.Graph, horizon float64, s *rng.Stream) *trace.Trace {
	rec := &contactRecorder{n: g.N()}
	sim.RunSynthetic(g, horizon, s, rec)
	return &trace.Trace{NodeCount: rec.n, Contacts: rec.contacts}
}

type contactRecorder struct {
	n        int
	contacts []trace.Contact
}

func (r *contactRecorder) OnContact(t float64, a, b contact.NodeID) {
	r.contacts = append(r.contacts, trace.Contact{A: a, B: b, Start: t, End: t})
}

func (r *contactRecorder) Done() bool { return false }

// StatsSubset is the conserved-counter subset compared across tiers.
type StatsSubset struct {
	Sent      int
	Forwarded int
	Carried   int
	Delivered int
}
