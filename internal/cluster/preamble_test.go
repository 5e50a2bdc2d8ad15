package cluster

// Contact-preamble tests: the hello / hello-ack / end-of-offers
// inventory exchange. A peer that miscounts its seen flags or speaks
// the previous protocol version is refused, and a contact with nothing
// to move ends after the hello round trip.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
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
				if typ, body, err := readMsg(conn); err == nil && typ == mHello {
					if hello, err := decodeHello(body); err == nil {
						hellos.Add(1)
						_ = writeFrame(conn, helloAckMsg{Seen: make([]bool, len(hello.IDs)+1)}.frame())
					}
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
	if err := writeFrame(conn, endOffersMsg{Seen: []bool{false, false}}.frame()); err != nil {
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
// preamble sends version-1 hellos, and one built before the binary
// contact codec sends version-4 JSON hellos; both are refused by their
// version number, not misread. A JSON hello's version is its first
// four bytes, `{"v"`, read as the binary layout's leading u32.
func TestVersionOneHelloRefused(t *testing.T) {
	c := launchTrio(t)
	jsonHello := []byte(`{"v":4,"from":0,"to":1,"now":0}`)
	for _, tc := range []struct {
		name    string
		frame   []byte
		version uint32
	}{
		{"version 1", helloMsg{Version: 1, From: 0, To: 1}.frame(), 1},
		{"version-4 JSON", append(newFrame(mHello, len(jsonHello)), jsonHello...), binary.BigEndian.Uint32([]byte(`{"v"`))},
	} {
		conn, err := net.DialTimeout("tcp", c.Daemon(1).Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, tc.frame); err != nil {
			t.Fatal(err)
		}
		_, err = readBody(conn, mHelloAck)
		_ = conn.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("protocol version %d, want %d", tc.version, protoVersion)) {
			t.Fatalf("%s hello: err = %v, want a version refusal", tc.name, err)
		}
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
	again, err := helloOn(conn, helloMsg{Version: protoVersion, From: 0, To: 1, Now: 1})
	if err != nil {
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

// TestSeenMemoIsPerConnection: a copy the peer is known to have seen is
// not listed again on the same socket, and is listed again on a fresh
// one, whose peer may be a restarted process that lost its seen log.
func TestSeenMemoIsPerConnection(t *testing.T) {
	send := func(t *testing.T, c *Cluster) {
		t.Helper()
		spec := node.SendSpec{Dst: 1, Payload: []byte("memo"), Relays: 1, Copies: 1, ID: faultMsgID}
		if _, err := c.Daemon(0).Send(spec, PathStream(21, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Node 0 answers a raw initiator posing as node 2.
	t.Run("responder", func(t *testing.T) {
		c := launchTrio(t)
		send(t, c)
		d0 := c.Daemon(0)
		conn, ack := rawHello(t, d0.Addr(), 2, 0, 0)
		if len(ack.IDs) != 1 || ack.Done {
			t.Fatalf("first hello ack = %+v, want the copy listed", ack)
		}
		if err := writeFrame(conn, endOffersMsg{Seen: []bool{true}}.frame()); err != nil {
			t.Fatal(err)
		}
		if _, err := readBody(conn, mContactDone); err != nil {
			t.Fatal(err)
		}
		again, err := helloOn(conn, helloMsg{Version: protoVersion, From: 2, To: 0, Now: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.IDs) != 0 || !again.Done {
			t.Fatalf("same socket: hello ack = %+v, want the flagged copy left out and the contact done", again)
		}
		if _, fresh := rawHello(t, d0.Addr(), 2, 0, 2); len(fresh.IDs) != 1 || fresh.Done {
			t.Fatalf("fresh socket: hello ack = %+v, want the copy listed again", fresh)
		}
		// An initiator that lists the copy holds it, so has seen it.
		if _, held := rawHello(t, d0.Addr(), 2, 0, 3, faultMsgID); len(held.IDs) != 0 || !held.Done {
			t.Fatalf("copy listed by the initiator: hello ack = %+v, want it left out and the contact done", held)
		}
		if d0.Node().BufferLen() != 1 || d0.Node().Stats().Forwarded != 0 {
			t.Fatalf("custody moved: buffer %d", d0.Node().BufferLen())
		}
	})

	// Node 0 calls a fake node 2 that flags every copy seen. The fake
	// closes its first socket after two contacts, so the third is a
	// stale redial; it then moves to a second address, so the fourth
	// dials a fresh socket without the stale-redial path.
	t.Run("initiator", func(t *testing.T) {
		c := launchTrio(t)
		send(t, c)
		var mu sync.Mutex
		var listed [][]int // per socket, the IDs each hello listed
		serve := func(conn net.Conn) {
			defer conn.Close()
			mu.Lock()
			sock := len(listed)
			listed = append(listed, nil)
			mu.Unlock()
			for n := 0; sock > 0 || n < 2; n++ {
				typ, body, err := readMsg(conn)
				if err != nil || typ != mHello {
					return
				}
				hello, err := decodeHello(body)
				if err != nil {
					return
				}
				mu.Lock()
				listed[sock] = append(listed[sock], len(hello.IDs))
				mu.Unlock()
				seen := make([]bool, len(hello.IDs))
				for i := range seen {
					seen[i] = true
				}
				if writeFrame(conn, helloAckMsg{Seen: seen, Done: true}.frame()) != nil {
					return
				}
			}
		}
		var addrs []string
		for i := 0; i < 2; i++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = lis.Close() })
			addrs = append(addrs, lis.Addr().String())
			go func() {
				for {
					conn, err := lis.Accept()
					if err != nil {
						return
					}
					serve(conn)
				}
			}()
		}

		d0 := c.Daemon(0)
		for i, addr := range []string{addrs[0], addrs[0], addrs[0], addrs[1]} {
			if _, err := d0.Contact(2, addr, float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		got := fmt.Sprint(listed)
		mu.Unlock()
		if want := "[[1 0] [1] [1]]"; got != want {
			t.Fatalf("IDs listed per hello, per socket: %s, want %s", got, want)
		}
		if d0.Node().BufferLen() != 1 || d0.Node().Stats().Forwarded != 0 {
			t.Fatalf("custody moved: buffer %d", d0.Node().BufferLen())
		}
	})
}
