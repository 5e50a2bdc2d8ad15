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
//     truncation/tamper classification applies to real socket tears.
//     The contact messages have fixed binary layouts; the directory and
//     coordinator control plane speaks JSON. A daemon keeps one idle
//     outbound connection per peer it has called, so a contact is a
//     hello on an open socket, not a fresh dial, and each side of that
//     socket remembers which of its copies the other has seen;
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
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/bundle"
	"repro/internal/obs"
)

// Message types. Every wire message is one bundle-framed payload whose
// first byte is the type. Contact bodies are binary (see the layouts
// below); directory and coordinator bodies are JSON.
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
// waits for the next hello where it used to close; version 5 replaced
// the JSON contact bodies with binary ones and lets each side of a
// connection leave out the copies the peer is known to have seen.
const protoVersion = 5

// The contact preamble is a summary-vector exchange: each side lists
// the IDs of the copies it would offer, the other answers with one
// seen flag per ID, and only unseen copies are offered. The IDs
// already travel in clear inside every offer frame, and a rejection
// verdict already told the sender the peer's seen bit, so the
// inventory reveals nothing the exchange did not.
type helloMsg struct {
	Version int
	From    int
	To      int
	Now     float64
	// IDs lists the initiator's offers to this peer, in custody order,
	// less those the peer is known to have seen on this connection.
	IDs []string
}

type helloAckMsg struct {
	// Seen holds one flag per hello ID: true means the responder has
	// seen that message and the initiator does not offer it.
	Seen []bool
	// IDs lists the responder's offers to the initiator, snapshotted at
	// hello time, less those the initiator is known to have seen.
	IDs []string
	// Done ends the contact here: every hello ID was seen and the
	// responder has nothing to offer, so neither side sends again.
	Done bool
}

type endOffersMsg struct {
	// Seen holds one flag per hello-ack ID, as helloAckMsg.Seen.
	Seen []bool
}

type verdictMsg struct {
	Accepted  bool
	Delivered bool
	// BufferFull distinguishes the backpressure refusal subclass of
	// rejections: the sender charges the copy's re-offer budget instead
	// of treating the peer as broken.
	BufferFull bool
	// Damaged marks an offer whose body or frame failed to parse.
	Damaged bool
	Reason  string
}

// Contact bodies have fixed binary layouts, big-endian, read front to
// back:
//
//	hello:      version u32 | from u32 | to u32 | now f64 | ids
//	hello ack:  done u8 | flags | ids
//	end offers: flags
//	verdict:    bits u8 | reason (the rest of the body)
//	offer:      hops i32 | bundle frame (the rest of the body)
//
// ids is a u32 count, then each ID as a uvarint length and its bytes;
// flags is a u32 count, then one byte, 0 or 1, per flag. The verdict
// bits are the verdict* constants. The version leads at a fixed width,
// so a hello of any other version, a JSON one included, is refused by
// its number before anything else is read. Every count is checked
// against the bytes left before anything is allocated, and a body with
// bytes left over is refused. The smallest hello frame (29 bytes) must
// stay longer than every cut point internal/chaos draws, so an
// injected cut always lands inside the hello.
const (
	verdictAccepted byte = 1 << iota
	verdictDelivered
	verdictBufferFull
	verdictDamaged
)

// helloFixed is the size of a hello body before its IDs.
const helloFixed = 4 + 4 + 4 + 8

func (m helloMsg) frame() []byte {
	b := newFrame(mHello, helloFixed+idsSize(m.IDs))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Version))
	b = binary.BigEndian.AppendUint32(b, uint32(m.From))
	b = binary.BigEndian.AppendUint32(b, uint32(m.To))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Now))
	return appendIDs(b, m.IDs)
}

func (m helloAckMsg) frame() []byte {
	b := newFrame(mHelloAck, 1+4+len(m.Seen)+idsSize(m.IDs))
	b = append(b, boolByte(m.Done))
	b = appendFlags(b, m.Seen)
	return appendIDs(b, m.IDs)
}

func (m endOffersMsg) frame() []byte {
	return appendFlags(newFrame(mEndOffers, 4+len(m.Seen)), m.Seen)
}

func (m verdictMsg) frame() []byte {
	var bits byte
	for i, set := range []bool{m.Accepted, m.Delivered, m.BufferFull, m.Damaged} {
		bits |= boolByte(set) << i
	}
	b := append(newFrame(mVerdict, 1+len(m.Reason)), bits)
	return append(b, m.Reason...)
}

// offerFrame frames a hand-off: the hop counter, then the marshaled
// bundle frame.
func offerFrame(hops int, frame []byte) []byte {
	b := binary.BigEndian.AppendUint32(newFrame(mOffer, 4+len(frame)), uint32(hops))
	return append(b, frame...)
}

func decodeHello(body []byte) (helloMsg, error) {
	r := bodyReader{b: body}
	m := helloMsg{Version: int(r.u32())}
	if r.err == nil && m.Version != protoVersion {
		return m, fmt.Errorf("protocol version %d, want %d", m.Version, protoVersion)
	}
	m.From = int(r.u32())
	m.To = int(r.u32())
	m.Now = math.Float64frombits(binary.BigEndian.Uint64(r.take(8)))
	m.IDs = r.ids()
	return m, r.done("hello")
}

func decodeHelloAck(body []byte) (helloAckMsg, error) {
	r := bodyReader{b: body}
	m := helloAckMsg{Done: r.flag()}
	m.Seen = r.flags()
	m.IDs = r.ids()
	return m, r.done("hello ack")
}

func decodeEndOffers(body []byte) (endOffersMsg, error) {
	r := bodyReader{b: body}
	m := endOffersMsg{Seen: r.flags()}
	return m, r.done("end of offers")
}

func decodeVerdict(body []byte) (verdictMsg, error) {
	if len(body) == 0 {
		return verdictMsg{}, fmt.Errorf("%w: empty verdict", errUnexpected)
	}
	bits := body[0]
	if bits >= verdictDamaged<<1 {
		return verdictMsg{}, fmt.Errorf("%w: verdict bits %#x", errUnexpected, bits)
	}
	return verdictMsg{
		Accepted:   bits&verdictAccepted != 0,
		Delivered:  bits&verdictDelivered != 0,
		BufferFull: bits&verdictBufferFull != 0,
		Damaged:    bits&verdictDamaged != 0,
		Reason:     string(body[1:]),
	}, nil
}

// decodeOffer splits a hand-off body into hop counter and frame. The
// counter is a signed 32-bit value, so a forged negative one is
// refused rather than read as billions of hops.
func decodeOffer(body []byte) (hops int, frame []byte, err error) {
	if len(body) < 5 {
		return 0, nil, fmt.Errorf("%w: offer body of %d bytes", bundle.ErrTruncated, len(body))
	}
	hops = int(int32(binary.BigEndian.Uint32(body)))
	if hops < 0 {
		return 0, nil, fmt.Errorf("cluster: negative hop counter %d", hops)
	}
	return hops, body[4:], nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// idsSize is the encoded size of ids, exact for IDs under 128 bytes
// (a message ID has 32); it sizes a frame's buffer.
func idsSize(ids []string) int {
	n := 4
	for _, id := range ids {
		n += 1 + len(id)
	}
	return n
}

func appendIDs(b []byte, ids []string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(len(id)))
		b = append(b, id...)
	}
	return b
}

func appendFlags(b []byte, flags []bool) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(flags)))
	for _, f := range flags {
		b = append(b, boolByte(f))
	}
	return b
}

// bodyReader consumes a contact body front to back. The first short
// or malformed field sticks in err, and every later read returns zero
// values, so a decoder checks err once, in done.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errUnexpected}, args...)...)
	}
	r.b = nil
}

// take returns the next n (at most 8) bytes, or zeroes once the body
// is short.
func (r *bodyReader) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("%d bytes left for a %d-byte field", len(r.b), n)
		var zero [8]byte
		return zero[:n]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *bodyReader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }

func (r *bodyReader) flag() bool {
	switch v := r.take(1)[0]; v {
	case 0, 1:
		return v == 1
	default:
		r.fail("flag byte %#x", v)
		return false
	}
}

// count reads a list length and, before the list is allocated,
// refuses one longer than the bytes left: every element takes at least
// one byte.
func (r *bodyReader) count() int {
	n := uint64(r.u32())
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return 0
	}
	return int(n)
}

func (r *bodyReader) flags() []bool {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.flag()
	}
	return out
}

func (r *bodyReader) ids() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		l, k := binary.Uvarint(r.b)
		if k <= 0 || l > uint64(len(r.b)-k) {
			r.fail("malformed ID %d", i)
			return nil
		}
		out[i] = string(r.b[k : k+int(l)])
		r.b = r.b[k+int(l):]
	}
	return out
}

// done reports the first decoding error, or bytes left over.
func (r *bodyReader) done(what string) error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the end", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", what, r.err)
	}
	return nil
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

// writeMsg frames and writes one typed message with a single Write.
func writeMsg(w io.Writer, typ byte, body []byte) error {
	return writeFrame(w, append(newFrame(typ, len(body)), body...))
}

// newFrame starts a frame of type typ with room for a body of size
// bytes: the length prefix bundle.ReadFrame expects, which writeFrame
// fills in, then the type byte.
func newFrame(typ byte, size int) []byte {
	frame := make([]byte, bundle.FramePrefixSize+1, bundle.FramePrefixSize+1+size)
	frame[bundle.FramePrefixSize] = typ
	return frame
}

// writeFrame completes a frame newFrame started and writes it with a
// single Write.
func writeFrame(w io.Writer, frame []byte) error {
	typ := frame[bundle.FramePrefixSize]
	n := len(frame) - bundle.FramePrefixSize
	if n > bundle.MaxFrame {
		return fmt.Errorf("cluster: message %d of %d bytes exceeds the frame limit %d", typ, n, bundle.MaxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
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

// readBody reads one message, requires the given type and returns its
// body. An mOK carrying an error string is surfaced as that error.
func readBody(r io.Reader, want byte) ([]byte, error) {
	typ, body, err := readMsg(r)
	if err != nil {
		return nil, err
	}
	if typ == mOK {
		var ok okMsg
		if err := json.Unmarshal(body, &ok); err == nil && ok.Err != "" {
			return nil, fmt.Errorf("cluster: peer error: %s", ok.Err)
		}
		if want != mOK {
			return nil, fmt.Errorf("cluster: unexpected ack (want message type %d)", want)
		}
		return body, nil
	}
	if typ != want {
		return nil, fmt.Errorf("cluster: unexpected message type %d (want %d)", typ, want)
	}
	return body, nil
}

// readExpect is readBody for a JSON body, decoded into out when
// non-nil; an ack's body is not decoded.
func readExpect(r io.Reader, want byte, out any) error {
	body, err := readBody(r, want)
	if err != nil || out == nil || want == mOK {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cluster: decode message type %d: %w", want, err)
	}
	return nil
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
