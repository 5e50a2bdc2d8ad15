package cluster

// Fault-layer socket tests: connections torn mid-contact, daemons
// killed and restarted, and duplicate re-offers after lost verdicts.
// The topology is pinned so every step is deterministic: 3 nodes with
// singleton groups force SelectPath (which excludes both endpoint
// groups) to route 0 -> 1 through node 2's group.

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
)

const faultMsgID = "000102030405060708090a0b0c0d0e0f"

// launchTrio starts a directory and three daemons with singleton
// groups.
func launchTrio(t *testing.T) *Cluster {
	t.Helper()
	c, err := Launch(Config{Nodes: 3, GroupSize: 1, Seed: 21, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// rawHello opens a contact with the daemon at addr, pretending to be
// node from and listing ids as its offers, and returns the connection
// with the daemon's hello ack.
func rawHello(t *testing.T, addr string, from, to int, now float64, ids ...string) (net.Conn, helloAckMsg) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	ack, err := helloOn(conn, helloMsg{Version: protoVersion, From: from, To: to, Now: now, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	return conn, ack
}

// helloOn writes a hello on conn and reads the hello ack.
func helloOn(conn net.Conn, m helloMsg) (helloAckMsg, error) {
	if err := writeFrame(conn, m.frame()); err != nil {
		return helloAckMsg{}, err
	}
	body, err := readBody(conn, mHelloAck)
	if err != nil {
		return helloAckMsg{}, err
	}
	return decodeHelloAck(body)
}

// readVerdict reads and decodes one verdict.
func readVerdict(conn net.Conn) (verdictMsg, error) {
	body, err := readBody(conn, mVerdict)
	if err != nil {
		return verdictMsg{}, err
	}
	return decodeVerdict(body)
}

// fakePeerStealOffer opens a contact with the daemon at addr,
// pretending to be node from, sends no offers of its own, claims to
// have seen none of the daemon's, and reads the daemon's first offer —
// then tears the connection without ever sending a verdict. It returns
// the raw offer body (hops + frame).
func fakePeerStealOffer(t *testing.T, addr string, from, to int) []byte {
	t.Helper()
	conn, ack := rawHello(t, addr, from, to, 0)
	defer conn.Close()
	if err := writeFrame(conn, endOffersMsg{Seen: make([]bool, len(ack.IDs))}.frame()); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readMsg(conn)
	if err != nil {
		t.Fatalf("reading the daemon's offer: %v", err)
	}
	if typ != mOffer {
		t.Fatalf("expected an offer, got message type %d", typ)
	}
	return body
	// conn closes here: the verdict is never sent.
}

// TestCustodySurvivesTearsAndCrash walks one message through every
// fault the live tier can throw at it: a receiver that vanishes before
// the verdict, a custodian killed and restarted mid-route, and a
// duplicate re-offer after the delivery — the message must still be
// delivered exactly once.
func TestCustodySurvivesTearsAndCrash(t *testing.T) {
	c := launchTrio(t)
	d0, d1, d2 := c.Daemon(0), c.Daemon(1), c.Daemon(2)

	// Originate 0 -> 1; the only eligible relay group is {2}.
	spec := node.SendSpec{Dst: 1, Payload: []byte("survives"), Relays: 1, Copies: 1, ID: faultMsgID}
	if _, err := d0.Send(spec, PathStream(21, 0)); err != nil {
		t.Fatal(err)
	}

	// Fault 1: the peer reads the offer and dies before the verdict.
	// The sender must keep custody — releasing on an unacknowledged
	// offer would lose the message.
	fakePeerStealOffer(t, d0.Addr(), 2, 0)
	waitStable(t, func() bool { return d0.Node().BufferLen() == 1 })
	if s := d0.Node().Stats(); s.Forwarded != 0 {
		t.Fatalf("custody released on a torn contact: forwarded=%d", s.Forwarded)
	}

	// The next real contact re-offers and the hand-off completes.
	rep, err := d0.Contact(2, d2.Addr(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 1 {
		t.Fatalf("re-offer after tear: %+v", rep)
	}
	if d0.Node().BufferLen() != 0 || d2.Node().BufferLen() != 1 {
		t.Fatalf("custody did not move: buffers %d/%d", d0.Node().BufferLen(), d2.Node().BufferLen())
	}

	// Fault 2: the destination reads the final-hop offer and dies
	// before the verdict. Save the offered body — it is exactly what a
	// duplicate re-offer will replay later.
	finalOffer := fakePeerStealOffer(t, d2.Addr(), 1, 2)
	waitStable(t, func() bool { return d2.Node().BufferLen() == 1 })

	// Fault 3: the custodian itself is killed and restarted with
	// persisted custody, rejoining at the next incarnation.
	d2.Kill()
	if err := d2.Restart(true); err != nil {
		t.Fatal(err)
	}
	if d2.Incarnation() != 2 {
		t.Fatalf("incarnation %d after restart", d2.Incarnation())
	}
	if addr, ok := c.Dir().MemberAddr(2); !ok || addr != d2.Addr() {
		t.Fatalf("directory address %q not updated to %q", addr, d2.Addr())
	}
	if d2.Node().BufferLen() != 1 {
		t.Fatal("persisted custody lost across restart")
	}

	// Delivery: the restarted custodian re-offers to the destination.
	rep, err = d2.Contact(1, d1.Addr(), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 1 || rep.Deliveries != 1 {
		t.Fatalf("final hand-off: %+v", rep)
	}
	hops, ok := d1.Node().DeliveredHops(faultMsgID)
	if !ok {
		t.Fatal("message not delivered")
	}
	if hops != 2 {
		t.Fatalf("delivered in %d custody transfers, want 2", hops)
	}

	// Fault 4: the lost verdict of fault 2 means a crashed-and-revived
	// node 2 could re-offer the delivered frame. A peer that honours
	// the inventory never sends it: the destination flags it seen.
	// Node 1 first takes custody of a message of its own (1 -> 0, via
	// group {2}), so the contact outlives the hello.
	spec = node.SendSpec{Dst: 0, Payload: []byte("return"), Relays: 1, Copies: 1, ID: "0f0e0d0c0b0a09080706050403020100"}
	if _, err := d1.Send(spec, PathStream(21, 1)); err != nil {
		t.Fatal(err)
	}
	conn, ack := rawHello(t, d1.Addr(), 2, 1, 3.0, faultMsgID)
	if len(ack.Seen) != 1 || !ack.Seen[0] || len(ack.IDs) != 1 || ack.Done {
		t.Fatalf("hello ack = %+v, want the delivered message flagged seen and one offer listed", ack)
	}
	// A peer that ignores the flag and re-offers anyway must still be
	// rejected by the seen log — accepting would deliver twice.
	if err := writeMsg(conn, mOffer, finalOffer); err != nil {
		t.Fatal(err)
	}
	v, err := readVerdict(conn)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted {
		t.Fatal("duplicate re-offer of a delivered message was accepted")
	}
	if !strings.Contains(v.Reason, "already saw") {
		t.Fatalf("duplicate rejected for the wrong reason: %q", v.Reason)
	}
	// Claim node 1's offer as seen: the contact winds down with no
	// further offer.
	if err := writeFrame(conn, endOffersMsg{Seen: []bool{true}}.frame()); err != nil {
		t.Fatal(err)
	}
	if err := readExpect(conn, mContactDone, nil); err != nil {
		t.Fatalf("contact did not wind down after the dup rejection: %v", err)
	}
	if got := d1.Node().Stats().Delivered; got != 1 {
		t.Fatalf("delivered %d times, want exactly once", got)
	}
}

// TestForgedHopCounterGetsDamagedVerdict: an offer's hop counter is a
// signed 32-bit value, so a prefix of 0xFFFFFFFF is a negative counter,
// not 4.3e9 hops. The offer gets a damaged verdict and custody stays
// with the sender; the same frame under its genuine counter is taken.
func TestForgedHopCounterGetsDamagedVerdict(t *testing.T) {
	c := launchTrio(t)
	d0, d2 := c.Daemon(0), c.Daemon(2)
	spec := node.SendSpec{Dst: 1, Payload: []byte("forged hops"), Relays: 1, Copies: 1, ID: faultMsgID}
	if _, err := d0.Send(spec, PathStream(21, 0)); err != nil {
		t.Fatal(err)
	}
	genuine := fakePeerStealOffer(t, d0.Addr(), 2, 0)
	forged := append([]byte{0xff, 0xff, 0xff, 0xff}, genuine[4:]...)

	conn, ack := rawHello(t, d2.Addr(), 0, 2, 1, faultMsgID)
	if len(ack.Seen) != 1 || ack.Seen[0] {
		t.Fatalf("hello ack = %+v, want the copy unseen", ack)
	}
	if err := writeMsg(conn, mOffer, forged); err != nil {
		t.Fatal(err)
	}
	v, err := readVerdict(conn)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || !v.Damaged {
		t.Fatalf("offer with a forged hop counter: verdict %+v, want damaged", v)
	}
	if d2.Node().BufferLen() != 0 || d0.Node().BufferLen() != 1 || d0.Node().Stats().Forwarded != 0 {
		t.Fatalf("custody moved on a forged offer: buffers %d/%d", d0.Node().BufferLen(), d2.Node().BufferLen())
	}
	if err := writeMsg(conn, mOffer, genuine); err != nil {
		t.Fatal(err)
	}
	if v, err := readVerdict(conn); err != nil || !v.Accepted {
		t.Fatalf("genuine offer after the forged one: verdict %+v (err %v), want accepted", v, err)
	}
}

// TestVolatileCrashDropsCustodyButKeepsLogs kills a custodian without
// persisted custody: the buffered onion is gone, but the duplicate-
// suppression log survives, so the origin cannot resend the same
// message ID.
func TestVolatileCrashDropsCustodyButKeepsLogs(t *testing.T) {
	c := launchTrio(t)
	d0 := c.Daemon(0)
	spec := node.SendSpec{Dst: 1, Payload: []byte("volatile"), Relays: 1, Copies: 1, ID: faultMsgID}
	if _, err := d0.Send(spec, PathStream(21, 0)); err != nil {
		t.Fatal(err)
	}
	d0.Kill()
	if err := d0.Restart(false); err != nil {
		t.Fatal(err)
	}
	s := d0.Node().Stats()
	if d0.Node().BufferLen() != 0 || s.Crashes != 1 || s.CrashDropped != 1 {
		t.Fatalf("volatile crash bookkeeping: buffer=%d stats=%+v", d0.Node().BufferLen(), s)
	}
	if _, err := d0.Send(spec, PathStream(21, 0)); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("seen log did not survive the crash: %v", err)
	}
}

// TestRestartRequiresKill guards the lifecycle: a running daemon
// cannot be restarted in place.
func TestRestartRequiresKill(t *testing.T) {
	c := launchTrio(t)
	if err := c.Daemon(0).Restart(true); err == nil {
		t.Fatal("restarted a running daemon")
	}
}

// waitStable polls for an asynchronous teardown to settle.
func waitStable(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition did not settle")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
