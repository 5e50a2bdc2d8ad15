package cluster

// Contact-preamble tests: the hello / hello-ack / end-of-offers
// inventory exchange. A peer that miscounts its seen flags or speaks
// the previous protocol version is refused, and a contact with nothing
// to move ends after the hello round trip.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

// TestHelloAckFlagCountIsProtocolError: a responder whose hello ack
// carries a different number of seen flags than the hello listed IDs
// breaks the protocol; the initiator moves no custody and, since a
// retry would meet the same peer, fails after one attempt although its
// retry budget has seconds left.
func TestHelloAckFlagCountIsProtocolError(t *testing.T) {
	// The contact runs under the default retry budget, seconds long.
	t.Run("default-budget", func(t *testing.T) {
		c, err := Launch(Config{Nodes: 3, GroupSize: 1, Seed: 21, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		d0 := c.Daemon(0)
		spec := node.SendSpec{Dst: 1, Payload: []byte("miscount"), Relays: 1, Copies: 1, ID: faultMsgID}
		if _, err := d0.Send(spec, PathStream(21, 0)); err != nil {
			t.Fatal(err)
		}

		// A fake node 2 that answers every hello with two flags.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		var hellos atomic.Int64
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				var hello helloMsg
				if typ, body, err := readMsg(conn); err == nil && typ == mHello && unmarshalStrict(body, &hello) == nil {
					hellos.Add(1)
					_ = writeJSON(conn, mHelloAck, helloAckMsg{Seen: make([]bool, len(hello.IDs)+1)})
				}
				_ = conn.Close()
			}
		}()

		col := obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
		start := time.Now()
		_, err = d0.Contact(2, lis.Addr().String(), 1)
		elapsed := time.Since(start)
		if !errors.Is(err, errUnexpected) {
			t.Fatalf("contact with a miscounting peer: err = %v, want a protocol violation", err)
		}
		if d0.Node().BufferLen() != 1 || d0.Node().Stats().Forwarded != 0 {
			t.Fatalf("custody moved on a refused preamble: buffer %d, stats %+v", d0.Node().BufferLen(), d0.Node().Stats())
		}
		if n, retries := hellos.Load(), col.Get(obs.RetryAttempts); n != 1 || retries != 0 {
			t.Fatalf("protocol violation retried: %d hellos, %d retry attempts, want 1 and 0", n, retries)
		}
		if elapsed > time.Second {
			t.Fatalf("protocol violation took %v to fail, want a prompt return", elapsed)
		}
	})
}

// TestEndOffersFlagCountIsProtocolError: an initiator whose end of
// offers carries a different number of seen flags than the hello ack
// listed IDs is told so, and the responder offers nothing.
func TestEndOffersFlagCountIsProtocolError(t *testing.T) {
	c := launchTrio(t)
	d0 := c.Daemon(0)
	spec := node.SendSpec{Dst: 1, Payload: []byte("miscount"), Relays: 1, Copies: 1, ID: faultMsgID}
	if _, err := d0.Send(spec, PathStream(21, 0)); err != nil {
		t.Fatal(err)
	}
	conn, ack := rawHello(t, d0.Addr(), 2, 0, 0)
	if len(ack.IDs) != 1 || ack.Done {
		t.Fatalf("hello ack = %+v, want one offer listed", ack)
	}
	if err := writeJSON(conn, mEndOffers, endOffersMsg{Seen: []bool{false, false}}); err != nil {
		t.Fatal(err)
	}
	err := readExpect(conn, mOffer, nil)
	if err == nil || !strings.Contains(err.Error(), "2 seen flags for 1 offer IDs") {
		t.Fatalf("miscounted end of offers: err = %v, want a protocol violation", err)
	}
	if d0.Node().BufferLen() != 1 || d0.Node().Stats().Forwarded != 0 {
		t.Fatalf("custody moved on a refused contact: buffer %d", d0.Node().BufferLen())
	}
}

// TestVersionOneHelloRefused: a daemon built before the inventory
// preamble sends version-1 hellos; they are refused, not misread.
func TestVersionOneHelloRefused(t *testing.T) {
	c := launchTrio(t)
	conn, err := net.DialTimeout("tcp", c.Daemon(1).Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeJSON(conn, mHello, helloMsg{Version: 1, From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	err = readExpect(conn, mHelloAck, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("protocol version 1, want %d", protoVersion)) {
		t.Fatalf("version-1 hello: err = %v, want a version refusal", err)
	}
}

// TestIdleContactEndsAfterHello: when every listed copy is seen and
// the responder has nothing to offer, the hello ack is the contact's
// last frame. The socket then carries the next contact: a second hello
// gets its own ack, and closing the initiator's side ends the
// responder's handler.
func TestIdleContactEndsAfterHello(t *testing.T) {
	c := launchTrio(t)
	d1 := c.Daemon(1)
	conn, ack := rawHello(t, d1.Addr(), 0, 1, 0)
	if !ack.Done || len(ack.IDs) != 0 {
		t.Fatalf("hello ack = %+v, want the contact done", ack)
	}
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var one [1]byte
	if n, err := conn.Read(one[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after a done ack the responder sent %d bytes (err %v), want silence", n, err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeJSON(conn, mHello, helloMsg{Version: protoVersion, From: 0, To: 1, Now: 1}); err != nil {
		t.Fatal(err)
	}
	var again helloAckMsg
	if err := readExpect(conn, mHelloAck, &again); err != nil {
		t.Fatalf("second hello on the same socket: %v", err)
	}
	if !again.Done || len(again.IDs) != 0 {
		t.Fatalf("second hello ack = %+v, want the contact done", again)
	}
	handlers := func() int {
		d1.mu.Lock()
		defer d1.mu.Unlock()
		return len(d1.conns)
	}
	if n := handlers(); n != 1 {
		t.Fatalf("responder has %d open handlers, want the one serving this socket", n)
	}
	_ = conn.Close()
	waitStable(t, func() bool { return handlers() == 0 })
}
