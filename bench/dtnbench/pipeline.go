package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/onion"
	"repro/internal/rng"
)

// The onion pipeline: one message's whole trip through the onion and
// bundle layers on one goroutine, with an in-memory buffer in place of
// the link.

const (
	pipelineK     = 3
	pipelineTrips = 50_000 // per round at scale 1
	poolSize      = 16     // seeded payloads per size class
	tripExpiry    = 60
)

// Payload classes: size and share of trips. 64 B stresses per-call cost
// and allocations; 16 KiB stresses copies.
var (
	classSize  = [numClasses]int{64, 1024, 16384}
	classShare = [numClasses]int{60, 30, 10}
	className  = [numClasses]string{"64", "1k", "16k"}
)

// pipelineOps names the per-layer metrics of each timed call.
var pipelineOps = []struct {
	c    callID
	name string
}{
	{cBuild, "onion.build"}, {cPeel, "onion.peel"}, {cUnwrap, "onion.unwrap"},
	{cMarshal, "bundle.marshal"}, {cUnmarshal, "bundle.unmarshal"},
	{cFrameWrite, "bundle.frame_write"}, {cFrameRead, "bundle.frame_read"},
}

// path is an onion route: K relay groups and the destination's cipher.
type path struct {
	hops  []onion.Hop
	dest  onion.NodeID
	destC onion.Cipher
}

func newPath(k int, s *rng.Stream) (path, error) {
	cipher := func() (onion.Cipher, error) { return onion.NewSymmetricCipher(randomBytes(onion.KeySize, s)) }
	p := path{hops: make([]onion.Hop, k), dest: onion.NodeID(s.IntN(1000))}
	for i := range p.hops {
		c, err := cipher()
		if err != nil {
			return p, err
		}
		p.hops[i] = onion.Hop{Group: onion.GroupID(i + 1), Cipher: c}
	}
	var err error
	p.destC, err = cipher()
	return p, err
}

// trip carries payload over the K+1 transmissions of its path: Build at
// the source, then per transmission Marshal, WriteFrame, ReadFrame and
// Unmarshal, peeling one layer at each relay group and unwrapping at the
// destination. It returns the payload the destination recovered. The
// calls' spans are chained with tracer.next and the last one is left for
// the caller's trip span to close, so tracing costs one clock reading
// per call.
func trip(tr *tracer, buf *bytes.Buffer, id [16]byte, p path, payload []byte) ([]byte, error) {
	tr.begin(cBuild)
	data, err := onion.Build(p.dest, payload, p.hops, p.destC, 0)
	if err != nil {
		return nil, err
	}
	b := bundle.Bundle{ID: id, Expiry: tripExpiry, Group: int32(p.hops[0].Group), Data: data}
	for hop := 0; ; hop++ {
		tr.next(cMarshal)
		frame, err := b.Marshal()
		if err != nil {
			return nil, err
		}
		tr.next(cFrameWrite)
		if err := bundle.WriteFrame(buf, frame); err != nil {
			return nil, err
		}
		tr.next(cFrameRead)
		if frame, err = bundle.ReadFrame(buf); err != nil {
			return nil, err
		}
		tr.next(cUnmarshal)
		in, err := bundle.Unmarshal(frame)
		if err != nil {
			return nil, err
		}
		if in.ID != id {
			return nil, errors.New("bundle ID changed in transit")
		}
		if in.LastHop {
			tr.next(cUnwrap)
			got, err := onion.Unwrap(in.Data, p.destC)
			if err == nil && (hop != len(p.hops) || in.DeliverTo != int32(p.dest)) {
				err = fmt.Errorf("delivered after %d transmissions to node %d", hop+1, in.DeliverTo)
			}
			return got, err
		}
		if hop == len(p.hops) || in.Group != int32(p.hops[hop].Group) {
			return nil, fmt.Errorf("transmission %d addressed to group %d", hop+1, in.Group)
		}
		tr.next(cPeel)
		peeled, err := onion.Peel(in.Data, p.hops[hop].Cipher)
		if err != nil {
			return nil, err
		}
		b = bundle.Bundle{ID: id, Expiry: in.Expiry, Data: peeled.Inner}
		if peeled.Deliver {
			b.LastHop, b.DeliverTo = true, int32(peeled.Dest)
		} else {
			b.Group = int32(peeled.NextGroup)
		}
	}
}

type pipeline struct {
	seed  uint64
	path  path
	pool  [numClasses][][]byte
	class []uint8 // per trip: payload class
	pick  []uint8 // per trip: payload within the class pool
}

func setupPipeline(cfg config) (round, error) {
	root := rng.New(cfg.seed).Split("pipeline")
	p := &pipeline{seed: cfg.seed}
	var err error
	if p.path, err = newPath(pipelineK, root.Split("keys")); err != nil {
		return nil, err
	}
	ps := root.Split("payloads")
	for c := range p.pool {
		for j := 0; j < poolSize; j++ {
			p.pool[c] = append(p.pool[c], randomBytes(classSize[c], ps))
		}
	}
	// The class mix is exact and shuffled, so every seed offers the same
	// bytes per round.
	trips := scaled(pipelineTrips, cfg.scale)
	p.class = make([]uint8, 0, trips)
	for c := numClasses - 1; c >= 0; c-- {
		n := trips * classShare[c] / 100
		if c == 0 {
			n = trips - len(p.class)
		}
		for j := 0; j < n; j++ {
			p.class = append(p.class, uint8(c))
		}
	}
	mix := root.Split("mix")
	mix.Shuffle(trips, func(i, j int) { p.class[i], p.class[j] = p.class[j], p.class[i] })
	p.pick = make([]uint8, trips)
	for i := range p.pick {
		p.pick[i] = uint8(mix.IntN(poolSize))
	}
	return p, nil
}

func (p *pipeline) close() {}

func (p *pipeline) run(tr *tracer) (*result, error) {
	res := newResult()
	res.lat = make([]time.Duration, len(p.class))
	var buf bytes.Buffer
	var id [16]byte
	binary.BigEndian.PutUint64(id[:8], p.seed)
	var trips [numClasses]int64
	var moved int64
	rt := tr.begin(cRound)
	for i, c := range p.class {
		payload := p.pool[c][p.pick[i]]
		binary.BigEndian.PutUint64(id[8:], uint64(i))
		tr.class = int(c)
		k := tr.begin(cTrip)
		got, err := trip(tr, &buf, id, p.path, payload)
		res.lat[i] = tr.end(k)
		k = tr.begin(cCheck)
		if err == nil && !bytes.Equal(got, payload) {
			err = errors.New("payload differs from the bytes sent")
		}
		tr.end(k)
		if err != nil {
			res.fail("trip %d: %v", i, err)
			continue
		}
		trips[c]++
		moved += int64(len(payload))
	}
	tr.class = 0
	res.wall = tr.end(rt)
	res.ops = len(p.class)
	res.counts["trips"] = int64(len(p.class))
	res.counts["delivered"] = trips[0] + trips[1] + trips[2]
	for c, n := range trips {
		res.counts["delivered_"+className[c]] = n
	}
	res.counts["payload_bytes"] = moved
	res.extra["goodput_mb_s"] = float64(moved) / 1e6 / res.wall.Seconds()
	if tr.on {
		for _, op := range pipelineOps {
			res.layer[op.name+"_ns"] = tr.meanNs(op.c, -1)
			for c := range className {
				res.layer[op.name+"_ns."+className[c]] = tr.meanNs(op.c, c)
			}
		}
	}
	return res, nil
}

// probeKs are the path lengths of the K-linearity probe.
var probeKs = []int{1, 3, 5, 10}

// probePipeline measures what the rounds cannot: exact allocation counts
// per call and payload class (testing.AllocsPerRun), and how a trip's
// allocations and the Build and full-peel times grow with the number of
// layers K at 64 B. The paper's cost model and per-layer onion cost
// analyses predict both are affine in K; allocations must be exactly so.
func probePipeline(cfg config, w io.Writer) (map[string]float64, []string, error) {
	root := rng.New(cfg.seed).Split("probe")
	out := map[string]float64{}
	off := &tracer{}
	var buf, link bytes.Buffer
	id := [16]byte{1}

	p, err := newPath(pipelineK, root.Split("keys"))
	if err != nil {
		return nil, nil, err
	}
	for c, size := range classSize {
		payload := randomBytes(size, root.Split("payload"))
		data, err := onion.Build(p.dest, payload, p.hops, p.destC, 0)
		if err != nil {
			return nil, nil, err
		}
		inner := data
		for _, h := range p.hops {
			peeled, err := onion.Peel(inner, h.Cipher)
			if err != nil {
				return nil, nil, err
			}
			inner = peeled.Inner
		}
		b := &bundle.Bundle{ID: id, Expiry: tripExpiry, Group: int32(p.hops[0].Group), Data: data}
		frame, err := b.Marshal()
		if err != nil {
			return nil, nil, err
		}
		var framed bytes.Buffer
		if err := bundle.WriteFrame(&framed, frame); err != nil {
			return nil, nil, err
		}
		rd := bytes.NewReader(nil)
		calls := map[callID]func(){
			cBuild:      func() { _, _ = onion.Build(p.dest, payload, p.hops, p.destC, 0) },
			cPeel:       func() { _, _ = onion.Peel(data, p.hops[0].Cipher) },
			cUnwrap:     func() { _, _ = onion.Unwrap(inner, p.destC) },
			cMarshal:    func() { _, _ = b.Marshal() },
			cUnmarshal:  func() { _, _ = bundle.Unmarshal(frame) },
			cFrameWrite: func() { buf.Reset(); _ = bundle.WriteFrame(&buf, frame) },
			cFrameRead:  func() { rd.Reset(framed.Bytes()); _, _ = bundle.ReadFrame(rd) },
		}
		for _, op := range pipelineOps {
			a := testing.AllocsPerRun(100, calls[op.c])
			out[op.name+"_allocs."+className[c]] = a
			out[op.name+"_allocs"] += a * float64(classShare[c])
		}
	}
	for _, op := range pipelineOps {
		out[op.name+"_allocs"] /= 100 // shares are percentages
	}

	var problems []string
	ks := make([]float64, len(probeKs))
	allocs := make([]float64, len(probeKs))
	buildNs := make([]float64, len(probeKs))
	peelNs := make([]float64, len(probeKs))
	payload := randomBytes(classSize[0], root.Split("payload"))
	for i, k := range probeKs {
		p, err := newPath(k, root.SplitN("k", k))
		if err != nil {
			return nil, nil, err
		}
		data, err := onion.Build(p.dest, payload, p.hops, p.destC, 0)
		if err != nil {
			return nil, nil, err
		}
		peelAll := func() error {
			cur := data
			for _, h := range p.hops {
				peeled, err := onion.Peel(cur, h.Cipher)
				if err != nil {
					return err
				}
				cur = peeled.Inner
			}
			return nil
		}
		if _, err := trip(off, &link, id, p, payload); err != nil {
			return nil, nil, fmt.Errorf("probe trip at K=%d: %w", k, err)
		}
		if err := peelAll(); err != nil {
			return nil, nil, fmt.Errorf("probe peel at K=%d: %w", k, err)
		}
		ks[i] = float64(k)
		allocs[i] = testing.AllocsPerRun(200, func() { _, _ = trip(off, &link, id, p, payload) })
		buildNs[i] = nsPerOp(func() { _, _ = onion.Build(p.dest, payload, p.hops, p.destC, 0) })
		peelNs[i] = nsPerOp(func() { _ = peelAll() })
	}
	// Allocation counts are exact, so affine means every point lies on
	// the line through the first two.
	perLayer := (allocs[1] - allocs[0]) / (ks[1] - ks[0])
	fixed := allocs[0] - perLayer*ks[0]
	for i := range ks {
		if allocs[i] != fixed+perLayer*ks[i] {
			problems = append(problems, fmt.Sprintf("trip allocations %v at K=%v are not affine in K", allocs, probeKs))
			break
		}
	}
	out["onion.allocs_per_layer"] = perLayer
	out["onion.allocs_fixed"] = fixed
	out["onion.build_ns_per_layer"], _, out["onion.build_r2"] = fitLine(ks, buildNs)
	out["onion.peel_ns_per_layer"], _, out["onion.peel_r2"] = fitLine(ks, peelNs)
	fmt.Fprintf(w, "K-linearity probe at 64 B: K=%v trip allocs=%v build ns=%.0f peel ns=%.0f\n", probeKs, allocs, buildNs, peelNs)
	return out, problems, nil
}

// nsPerOp is the median over five batches of f's mean time.
func nsPerOp(f func()) float64 {
	const batches, reps = 5, 1000
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / reps
	}
	return median(per)
}
