// Package cluster is the live networked tier of the system: the same
// protocol the in-process runtime (internal/node) executes as structs
// in a loop, run as daemons over real TCP sockets on loopback or a
// LAN. It provides
//
//   - a directory service (Dir) distributing membership and symmetric
//     layer keys — the keys travel as Shamir threshold shares
//     (internal/shamir), the bulletin-board shape of the related
//     pi_t-experiment repo;
//   - a node daemon (Daemon) that speaks the internal/bundle wire
//     format over length-framed TCP (the bundle.ReadFrame framing, each
//     frame written with one Write), so the bundle layer's
//     truncation/tamper classification applies to real socket tears. A
//     daemon keeps one idle outbound connection per peer it has called,
//     so a contact is a hello on an open socket, not a fresh dial;
//   - a control-plane client (Coordinator) with which cmd/dtndir
//     injects a workload into remote daemons and replays the same
//     trace files internal/trace parses as real contacts between them;
//   - the workload and trace recording (diff.go) that the differential
//     suites replay through both tiers, proving the live tier delivers
//     exactly the message set the in-process sim delivers for the same
//     (trace, seed).
//
// The scenario axis this opens: one spec now runs in three tiers —
// closed-form analysis, in-process simulation, live cluster.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/bundle"
	"repro/internal/obs"
)

// Message types. Every wire message is one bundle-framed payload whose
// first byte is the type; control bodies are JSON, hand-off bodies are
// binary (hop counter + marshaled bundle).
const (
	// Node <-> node: the contact protocol.
	mHello       byte = iota + 1 // contact opening: who calls whom, at what sim time, the initiator's offer IDs
	mOffer                       // one custody hand-off: 4-byte hops + bundle frame
	mVerdict                     // receiver's accept/reject for the preceding offer
	mEndOffers                   // initiator is done offering; seen flags for the peer's IDs
	mContactDone                 // peer is done offering; contact over

	// Node <-> directory: the bulletin board.
	mRegister // join/rejoin: id, address, incarnation
	mWelcome  // membership + threshold key shares
	_         // 8 and 9 are unassigned: the blanks keep every later
	_         // type's wire value
	mLeave    // voluntary departure
	mOK       // generic ack; carries an error string when the request failed

	// Coordinator -> node: control plane used by cmd/dtndir replay mode.
	mSend      // originate a message (workload spec fields)
	mContact   // initiate a contact with a peer
	mStats     // request a stats snapshot
	mStatsResp // stats answer
	mQuit      // shut down

	// Node <-> node, appended so the numbering above stays put.
	mHelloAck // seen flags for the initiator's IDs, the responder's offer IDs
)

// protoVersion guards against skew between daemons built from
// different revisions; Hello and Register carry it. Version 2 added
// the seen-flag inventory to the contact preamble; version 3 dropped
// the send request's expiry, which was always 0; version 4 keeps a
// contact connection open after the contact ends, so the responder
// waits for the next hello where it used to close.
const protoVersion = 4

// The contact preamble is a summary-vector exchange: each side lists
// the IDs of the copies it would offer, the other answers with one
// seen flag per ID, and only unseen copies are offered. The IDs
// already travel in clear inside every offer frame, and a rejection
// verdict already told the sender the peer's seen bit, so the
// inventory reveals nothing the exchange did not.
type helloMsg struct {
	Version int     `json:"v"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	Now     float64 `json:"now"`
	// IDs lists the initiator's offers to this peer, in custody order.
	IDs []string `json:"ids,omitempty"`
}

type helloAckMsg struct {
	// Seen holds one flag per hello ID: true means the responder has
	// seen that message and the initiator does not offer it.
	Seen []bool `json:"seen,omitempty"`
	// IDs lists the responder's offers to the initiator, snapshotted at
	// hello time.
	IDs []string `json:"ids,omitempty"`
	// Done ends the contact here: every hello ID was seen and the
	// responder has nothing to offer, so neither side sends again.
	Done bool `json:"done,omitempty"`
}

type endOffersMsg struct {
	// Seen holds one flag per hello-ack ID, as helloAckMsg.Seen.
	Seen []bool `json:"seen,omitempty"`
}

type verdictMsg struct {
	Accepted  bool   `json:"accepted"`
	Delivered bool   `json:"delivered,omitempty"`
	Reason    string `json:"reason,omitempty"`
	// BufferFull distinguishes the backpressure refusal subclass of
	// rejections: the sender charges the copy's re-offer budget instead
	// of treating the peer as broken. Verdicts are parsed non-strict,
	// so older daemons ignore the field.
	BufferFull bool `json:"buffer_full,omitempty"`
}

type registerMsg struct {
	Version     int    `json:"v"`
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"incarnation"`
}

type shareWire struct {
	X uint8  `json:"x"`
	Y []byte `json:"y"`
}

// keyWire is one layer key split into threshold shares. Kind is
// "group" or "node"; Index the group or node id.
type keyWire struct {
	Kind   string      `json:"kind"`
	Index  int         `json:"index"`
	Shares []shareWire `json:"shares"`
}

type welcomeMsg struct {
	N          int       `json:"n"`
	G          int       `json:"g"`
	Assignment []int32   `json:"assignment"`
	Threshold  int       `json:"threshold"`
	Keys       []keyWire `json:"keys"`
	// DirIncarnation numbers the directory's own lifetime: it bumps on
	// every directory restart, so a node that kept meeting through a
	// blackout can tell a returned directory from a never-gone one and
	// assert the bulletin board never moves backwards. Welcomes are
	// parsed non-strict, so older daemons ignore the field.
	DirIncarnation uint64 `json:"dir_incarnation,omitempty"`
}

type leaveMsg struct {
	ID          int    `json:"id"`
	Incarnation uint64 `json:"incarnation"`
}

type okMsg struct {
	Err string `json:"err,omitempty"`
}

type sendMsg struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Relays  int    `json:"relays"`
	Copies  int    `json:"copies"`
	Payload []byte `json:"payload"`
	MsgID   string `json:"msg_id"`
	// Seed and Index identify the relay-selection substream
	// (PathStream) so every tier draws the same path.
	Seed  uint64 `json:"seed"`
	Index int    `json:"index"`
}

type contactMsg struct {
	Peer int     `json:"peer"`
	Addr string  `json:"addr"`
	Now  float64 `json:"now"`
}

type statsRespMsg struct {
	Sent       int                `json:"sent"`
	Forwarded  int                `json:"forwarded"`
	Carried    int                `json:"carried"`
	Delivered  int                `json:"delivered"`
	Rejected   int                `json:"rejected"`
	BufferLen  int                `json:"buffer_len"`
	Deliveries []deliveryRespWire `json:"deliveries"`
}

type deliveryRespWire struct {
	MsgID string `json:"msg_id"`
	Hops  int    `json:"hops"`
}

// writeMsg frames and writes one typed message with a single Write:
// the length prefix bundle.ReadFrame expects, the type byte and the
// body share one buffer.
func writeMsg(w io.Writer, typ byte, body []byte) error {
	n := 1 + len(body)
	if n > bundle.MaxFrame {
		return fmt.Errorf("cluster: message %d of %d bytes exceeds the frame limit %d", typ, n, bundle.MaxFrame)
	}
	frame := make([]byte, bundle.FramePrefixSize+n)
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame[bundle.FramePrefixSize] = typ
	copy(frame[bundle.FramePrefixSize+1:], body)
	// The frame counts toward the collector installed when its write
	// began: the peer may act on the frame, and a new collector be
	// installed, before this goroutine returns from the write.
	c := obs.Active()
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("cluster: write message %d: %w", typ, err)
	}
	if c != nil {
		c.Add(obs.ClusterFramesOut, 1)
		c.Add(obs.ClusterBytesOut, int64(n))
	}
	return nil
}

// writeJSON marshals body and writes it as a typed message.
func writeJSON(w io.Writer, typ byte, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: marshal message %d: %w", typ, err)
	}
	return writeMsg(w, typ, raw)
}

// readMsg reads one typed message. Daemons pass the bufio.Reader that
// lives as long as the connection, so a frame costs one read syscall,
// not one for the prefix and one for the payload.
func readMsg(r io.Reader) (byte, []byte, error) {
	payload, err := bundle.ReadFrame(r)
	if err != nil {
		if c := obs.Active(); err != io.EOF && c != nil {
			c.Add(obs.ClusterFrameErrors, 1)
		}
		return 0, nil, err
	}
	if c := obs.Active(); c != nil {
		c.Add(obs.ClusterFramesIn, 1)
		c.Add(obs.ClusterBytesIn, int64(len(payload)))
	}
	return payload[0], payload[1:], nil
}

// unmarshalStrict decodes a JSON request body, rejecting unknown
// fields so protocol skew fails loudly instead of silently dropping
// data.
func unmarshalStrict(body []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("cluster: decode request: %w", err)
	}
	return nil
}

// readExpect reads one message and requires the given type, decoding a
// JSON body into out when non-nil. An mOK carrying an error string is
// surfaced as that error.
func readExpect(r io.Reader, want byte, out any) error {
	typ, body, err := readMsg(r)
	if err != nil {
		return err
	}
	if typ == mOK {
		var ok okMsg
		if err := json.Unmarshal(body, &ok); err == nil && ok.Err != "" {
			return fmt.Errorf("cluster: peer error: %s", ok.Err)
		}
		if want != mOK {
			return fmt.Errorf("cluster: unexpected ack (want message type %d)", want)
		}
		return nil
	}
	if typ != want {
		return fmt.Errorf("cluster: unexpected message type %d (want %d)", typ, want)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cluster: decode message type %d: %w", typ, err)
	}
	return nil
}

// offerBody encodes a hand-off: 4-byte big-endian hop counter followed
// by the marshaled bundle frame.
func offerBody(hops int, frame []byte) []byte {
	body := make([]byte, 4+len(frame))
	body[0] = byte(hops >> 24)
	body[1] = byte(hops >> 16)
	body[2] = byte(hops >> 8)
	body[3] = byte(hops)
	copy(body[4:], frame)
	return body
}

// decodeOffer splits a hand-off body into hop counter and frame.
func decodeOffer(body []byte) (hops int, frame []byte, err error) {
	if len(body) < 5 {
		return 0, nil, fmt.Errorf("%w: offer body of %d bytes", bundle.ErrTruncated, len(body))
	}
	hops = int(body[0])<<24 | int(body[1])<<16 | int(body[2])<<8 | int(body[3])
	if hops < 0 {
		return 0, nil, errors.New("cluster: negative hop counter")
	}
	return hops, body[4:], nil
}

// ioDeadlineConn refreshes the socket deadline before every Read and
// Write instead of arming one absolute deadline per connection phase.
// A phase-scoped deadline kills a slow-but-progressing multi-frame
// hand-off the moment the whole exchange outlasts Timeout, forcing
// custody to be needlessly re-offered; per-I/O refresh means progress
// keeps a connection alive while a genuine stall still times out
// within Timeout.
//
// Progress-as-liveness alone lets a maliciously slow peer — one byte
// per second is still progress — pin a contact forever. The optional
// wall cap bounds one contact: arm sets it at each hello, every
// refreshed deadline is clamped to it, so a contact exceeding its
// ContactBudget dies with a deadline error no matter how steadily
// bytes trickle.
type ioDeadlineConn struct {
	net.Conn
	timeout time.Duration
	wall    time.Time // zero = no wall cap
}

// arm caps the connection's I/O at budget from now, for the contact
// that starts here; budget 0 lifts the cap.
func (c *ioDeadlineConn) arm(budget time.Duration) {
	c.wall = time.Time{}
	if budget > 0 {
		c.wall = time.Now().Add(budget)
	}
}

func (c *ioDeadlineConn) deadline() time.Time {
	dl := time.Now().Add(c.timeout)
	if !c.wall.IsZero() && dl.After(c.wall) {
		dl = c.wall
	}
	return dl
}

func (c *ioDeadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(c.deadline()); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *ioDeadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(c.deadline()); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// withIODeadline wraps conn so every I/O operation gets a fresh
// deadline of timeout from now; every caller defaults timeout to a
// positive value.
func withIODeadline(conn net.Conn, timeout time.Duration) *ioDeadlineConn {
	return &ioDeadlineConn{Conn: conn, timeout: timeout}
}

// rawDial opens a plain connection with the configured dial timeout
// and counts it; callers layer deadlines (and chaos) on top.
func rawDial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	if c := obs.Active(); c != nil {
		c.Add(obs.ClusterDials, 1)
	}
	return conn, nil
}

// dial opens a connection with the configured timeout; every I/O on it
// refreshes its deadline (see ioDeadlineConn).
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := rawDial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return withIODeadline(conn, timeout), nil
}

// sendErr best-effort reports a request failure to the peer.
func sendErr(w io.Writer, err error) {
	_ = writeJSON(w, mOK, okMsg{Err: err.Error()})
}
