package cluster

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/contact"
	"repro/internal/groups"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/onion"
	"repro/internal/rng"
)

// DaemonConfig configures one dtnnode daemon.
type DaemonConfig struct {
	ID      int
	DirAddr string
	// ListenAddr defaults to an ephemeral loopback port.
	ListenAddr  string
	BufferLimit int
	// ReofferLimit caps how many buffer-full refusals a carried copy
	// survives before the daemon drops it (0 = unlimited re-offers).
	ReofferLimit int
	Spray        bool
	// Timeout bounds every socket I/O operation; the deadline is
	// refreshed on each read and write, so a multi-frame contact that
	// keeps making progress may run longer than Timeout while a stalled
	// one is torn down within it (default 10s).
	Timeout time.Duration
	// ContactBudget caps the total wall time of one contact (0 =
	// uncapped); both sides re-arm it at each hello, so a connection
	// that carries many contacts gives each the full budget. Per-I/O
	// refresh treats any progress as liveness, so without a budget a
	// maliciously slow peer trickling one byte per second can pin a
	// contact forever.
	ContactBudget time.Duration
	// JoinWait is how long a starting (or revalidating) daemon keeps
	// retrying its directory registration with backoff before giving
	// up (0 = a single attempt). A node started before its directory
	// is listening comes up as soon as the directory does.
	JoinWait time.Duration
	// Chaos, when set, injects seed-driven network turbulence into
	// every outbound connection (see internal/chaos).
	Chaos *chaos.Chaos
}

// Daemon is one DTN node running as a network service: it joins the
// directory, reconstructs the group structure and layer keys from its
// welcome, and then speaks the custody offer/verdict protocol over
// length-framed TCP. The node logic is internal/node unchanged — the
// daemon only swaps the in-memory pipe for sockets.
type Daemon struct {
	cfg  DaemonConfig
	node *node.Node

	mu             sync.Mutex
	lis            net.Listener
	addr           string
	incarnation    uint64
	dirIncarnation uint64   // last directory incarnation seen in a welcome
	viewDigest     [32]byte // digest of the first welcome's partition + keys
	conns          map[net.Conn]struct{}
	// idle holds at most one open outbound contact connection per peer
	// this daemon has called, parked between contacts (see peerConn).
	idle   map[contact.NodeID]*peerConn
	closed bool
	quit   chan struct{} // closed when the current incarnation stops
	wg     sync.WaitGroup

	// Self-healing state (retry.go): per-peer circuit breakers and the
	// timing-jitter stream, both created lazily under retryMu.
	retryMu  sync.Mutex
	breakers map[string]*breaker
	jitter   *rng.Stream
}

// StartDaemon joins the directory at cfg.DirAddr and starts serving.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Chaos != nil && cfg.JoinWait <= 0 {
		// Under injected turbulence a first registration can be faulted;
		// a single-attempt join would make Launch flaky by design.
		cfg.JoinWait = 10 * time.Second
	}
	d := &Daemon{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		idle:  make(map[contact.NodeID]*peerConn),
	}
	if err := d.open(1, false); err != nil {
		return nil, err
	}
	return d, nil
}

// open listens, registers at the given incarnation, and (on first
// join) builds the node from the directory's welcome.
func (d *Daemon) open(incarnation uint64, preserveCustody bool) error {
	lis, err := net.Listen("tcp", d.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("cluster: daemon %d listen: %w", d.cfg.ID, err)
	}
	welcome, err := d.registerWithRetry(lis.Addr().String(), incarnation)
	if err != nil {
		_ = lis.Close()
		return err
	}
	// Each layer key is recovered from its shares once per join; the
	// view and the digest are both built from the recovered keys.
	groupKeys, nodeKeys, err := recoverKeys(welcome)
	if err != nil {
		_ = lis.Close()
		return err
	}
	digest := welcomeDigest(welcome, groupKeys, nodeKeys)
	if d.node == nil {
		dir, err := buildView(welcome, groupKeys, nodeKeys)
		if err != nil {
			_ = lis.Close()
			return err
		}
		if d.node, err = node.New(contact.NodeID(d.cfg.ID), dir, d.cfg.BufferLimit); err != nil {
			_ = lis.Close()
			return err
		}
		d.node.SetReofferLimit(d.cfg.ReofferLimit)
	} else {
		// Rejoin after a crash/restart: the welcome must describe the
		// same partition and keys this node already routes with — a
		// directory that lost its key material would silently orphan
		// every in-flight onion.
		d.mu.Lock()
		prev := d.viewDigest
		d.mu.Unlock()
		if digest != prev {
			_ = lis.Close()
			return fmt.Errorf("cluster: daemon %d rejoin: directory welcome diverged from the joined view", d.cfg.ID)
		}
		// Crash/restart: volatile custody is lost unless persisted;
		// durable logs (delivered, seen, acks) survive.
		d.node.Crash(preserveCustody)
	}
	d.mu.Lock()
	d.lis = lis
	d.addr = lis.Addr().String()
	d.incarnation = incarnation
	d.dirIncarnation = welcome.DirIncarnation
	d.viewDigest = digest
	d.closed = false
	d.quit = make(chan struct{})
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(lis)
	return nil
}

// buildView reconstructs the client-side directory from a welcome:
// partition from the assignment, layer keys as recovered from its
// threshold shares.
func buildView(w *welcomeMsg, groupKeys map[onion.GroupID][]byte, nodeKeys [][]byte) (*groups.Directory, error) {
	byNode := make([]onion.GroupID, len(w.Assignment))
	for i, gid := range w.Assignment {
		byNode[i] = onion.GroupID(gid)
	}
	dir, err := groups.NewFromAssignment(byNode, w.G)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebuild partition: %w", err)
	}
	if err := dir.InstallSymmetricKeys(groupKeys, nodeKeys); err != nil {
		return nil, fmt.Errorf("cluster: install keys: %w", err)
	}
	return dir, nil
}

// dialDir opens one connection to the directory, through the chaos
// layer when one is configured.
func (d *Daemon) dialDir() (net.Conn, error) {
	if ch := d.cfg.Chaos; ch != nil {
		raw, err := ch.DialDir(d.cfg.DirAddr, func(a string) (net.Conn, error) {
			return rawDial(a, d.cfg.Timeout)
		})
		if err != nil {
			return nil, err
		}
		return withIODeadline(raw, d.cfg.Timeout), nil
	}
	return dial(d.cfg.DirAddr, d.cfg.Timeout)
}

// register joins the directory once and returns the welcome.
func (d *Daemon) register(addr string, incarnation uint64) (*welcomeMsg, error) {
	conn, err := d.dialDir()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	req := registerMsg{Version: protoVersion, ID: d.cfg.ID, Addr: addr, Incarnation: incarnation}
	if err := writeJSON(conn, mRegister, req); err != nil {
		return nil, err
	}
	var welcome welcomeMsg
	if err := readExpect(conn, mWelcome, &welcome); err != nil {
		return nil, fmt.Errorf("cluster: daemon %d register: %w", d.cfg.ID, err)
	}
	return &welcome, nil
}

// registerWithRetry keeps re-attempting the directory registration with
// jittered exponential backoff for up to JoinWait (one attempt when
// JoinWait is zero). This is what lets a dtnnode started before its
// dtndir — or revalidating through a directory blackout — come up the
// moment the directory is reachable instead of dying on the first
// refused dial.
func (d *Daemon) registerWithRetry(addr string, incarnation uint64) (*welcomeMsg, error) {
	br := d.breakerFor(d.cfg.DirAddr)
	w, err := d.register(addr, incarnation)
	if err == nil {
		br.success()
		return w, nil
	}
	br.failure(time.Now())
	if d.cfg.JoinWait <= 0 {
		return nil, err
	}
	deadline := time.Now().Add(d.cfg.JoinWait)
	for attempt := 0; ; attempt++ {
		wait := backoff(attempt, d.jitterFloat)
		if bw := br.wait(time.Now()); bw > wait {
			wait = bw
		}
		// A chaos partition hint is a better estimate than backoff.
		var blocked *chaos.BlockedError
		if errors.As(err, &blocked) && blocked.Wait > wait {
			wait = blocked.Wait
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("cluster: daemon %d register: join window %v exhausted: %w", d.cfg.ID, d.cfg.JoinWait, err)
		}
		d.sleepRetry(wait)
		if w, err = d.register(addr, incarnation); err == nil {
			br.success()
			return w, nil
		}
		br.failure(time.Now())
	}
}

// welcomeDigest condenses a welcome's routing-relevant content — the
// partition and the layer keys recovered from it — into one comparable
// value. Two welcomes with equal digests produce byte-identical node
// views.
func welcomeDigest(w *welcomeMsg, groupKeys map[onion.GroupID][]byte, nodeKeys [][]byte) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d g=%d t=%d;", w.N, w.G, w.Threshold)
	for _, gid := range w.Assignment {
		fmt.Fprintf(h, "%d,", gid)
	}
	for gid := 0; gid < len(groupKeys); gid++ {
		h.Write(groupKeys[onion.GroupID(gid)])
	}
	for _, k := range nodeKeys {
		h.Write(k)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Revalidate re-registers with the directory at the next incarnation
// and verifies the welcome still matches the view this node joined
// with: same partition, same recovered keys (so no Shamir share was
// re-issued from fresh key material), and a directory incarnation that
// never moves backwards. It is how a node that kept meeting through a
// directory blackout reconciles with the returned directory.
func (d *Daemon) Revalidate() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("cluster: daemon %d is stopped", d.cfg.ID)
	}
	addr := d.addr
	next := d.incarnation + 1
	prevDirInc := d.dirIncarnation
	prevDigest := d.viewDigest
	d.mu.Unlock()
	w, err := d.registerWithRetry(addr, next)
	if err != nil {
		return err
	}
	groupKeys, nodeKeys, err := recoverKeys(w)
	if err != nil {
		return err
	}
	if welcomeDigest(w, groupKeys, nodeKeys) != prevDigest {
		return fmt.Errorf("cluster: daemon %d revalidate: directory returned with a different partition or keys", d.cfg.ID)
	}
	if w.DirIncarnation < prevDirInc {
		return fmt.Errorf("cluster: daemon %d revalidate: directory incarnation went backwards (%d < %d)", d.cfg.ID, w.DirIncarnation, prevDirInc)
	}
	d.mu.Lock()
	d.incarnation = next
	d.dirIncarnation = w.DirIncarnation
	d.mu.Unlock()
	return nil
}

// Addr returns the daemon's current listening address.
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr
}

// Node exposes the underlying node for test assertions.
func (d *Daemon) Node() *node.Node { return d.node }

// ID returns the daemon's node id.
func (d *Daemon) ID() int { return d.cfg.ID }

// Incarnation returns the daemon's current membership incarnation.
func (d *Daemon) Incarnation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.incarnation
}

// Send originates a message from this daemon's node. The path stream
// must be the same substream the reference tier uses for this message
// index (PathStream) or the two tiers route differently.
func (d *Daemon) Send(spec node.SendSpec, pathStream *rng.Stream) (string, error) {
	return d.node.Send(spec, pathStream)
}

// Kill abruptly closes the listener, every open inbound connection and
// every idle outbound one without deregistering — the networked
// analogue of pulling the plug. Peers mid-contact observe a torn
// connection; custody they have not heard an accept-verdict for stays
// with them.
func (d *Daemon) Kill() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.quit)
	}
	lis := d.lis
	for conn := range d.conns {
		_ = conn.Close()
	}
	for peer, pc := range d.idle {
		_ = pc.raw.Close()
		delete(d.idle, peer)
	}
	d.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	d.wg.Wait()
}

// Wait blocks until the daemon's current incarnation has stopped (a
// Kill, a graceful Close, or a coordinator quit request) and every
// connection handler has drained.
func (d *Daemon) Wait() {
	d.mu.Lock()
	q := d.quit
	d.mu.Unlock()
	<-q
	d.wg.Wait()
}

// Restart brings a killed daemon back at the next incarnation,
// re-registering with the directory. Custody survives only when it was
// persisted (preserveCustody); the delivered/seen/ack logs always do.
func (d *Daemon) Restart(preserveCustody bool) error {
	d.mu.Lock()
	if !d.closed {
		d.mu.Unlock()
		return fmt.Errorf("cluster: daemon %d is still running", d.cfg.ID)
	}
	next := d.incarnation + 1
	d.mu.Unlock()
	return d.open(next, preserveCustody)
}

// Close gracefully shuts down: leave the directory, then stop serving.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	inc := d.incarnation
	d.mu.Unlock()
	if conn, err := dial(d.cfg.DirAddr, d.cfg.Timeout); err == nil {
		_ = writeJSON(conn, mLeave, leaveMsg{ID: d.cfg.ID, Incarnation: inc})
		_ = readExpect(conn, mOK, nil)
		_ = conn.Close()
	}
	d.Kill()
	return nil
}

func (d *Daemon) acceptLoop(lis net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		if c := obs.Active(); c != nil {
			c.Add(obs.ClusterAccepts, 1)
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			_ = conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go d.serve(conn)
	}
}

// serve handles one inbound connection: a control session when it
// opens with anything but a hello, a contact session otherwise. A
// contact session carries one contact per hello for as long as the
// initiator keeps the socket open; between contacts it waits for the
// next hello under Timeout alone, so a peer's idle socket simply times
// out. Every read goes through one reader that lives as long as the
// connection, and one seen memo holds what the initiator is known to
// have seen for as long as the connection lives.
func (d *Daemon) serve(conn net.Conn) {
	defer d.wg.Done()
	defer func() {
		_ = conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	// Per-I/O deadline refresh: progress keeps the connection alive, a
	// stall still times out within Timeout. The raw conn stays in
	// d.conns so Kill() can tear it down.
	rw := withIODeadline(conn, d.cfg.Timeout)
	r := bufio.NewReader(rw)
	typ, body, err := readMsg(r)
	if err != nil {
		return
	}
	if typ != mHello {
		for {
			if err := d.serveControl(rw, typ, body); err != nil {
				return
			}
			if typ, body, err = readMsg(r); err != nil {
				return
			}
		}
	}
	var memo seenMemo
	for {
		// Each contact gets the per-contact wall budget from its hello
		// on; control sessions stay open for a whole replay and must not.
		rw.arm(d.cfg.ContactBudget)
		if !d.serveContact(rw, r, body, &memo) {
			return
		}
		rw.arm(0)
		if typ, body, err = readMsg(r); err != nil || typ != mHello {
			return
		}
	}
}

// errQuit unwinds a control session after a quit request.
var errQuit = errors.New("cluster: quit")

// serveControl executes one coordinator request.
func (d *Daemon) serveControl(conn net.Conn, typ byte, body []byte) error {
	switch typ {
	case mSend:
		var m sendMsg
		if err := unmarshalStrict(body, &m); err != nil {
			sendErr(conn, err)
			return err
		}
		if m.Src != d.cfg.ID {
			err := fmt.Errorf("send for node %d routed to node %d", m.Src, d.cfg.ID)
			sendErr(conn, err)
			return nil
		}
		spec := node.SendSpec{
			Dst:     contact.NodeID(m.Dst),
			Payload: m.Payload,
			Relays:  m.Relays,
			Copies:  m.Copies,
			ID:      m.MsgID,
		}
		if _, err := d.node.Send(spec, PathStream(m.Seed, m.Index)); err != nil {
			sendErr(conn, err)
			return nil
		}
		return writeJSON(conn, mOK, okMsg{})
	case mContact:
		var m contactMsg
		if err := unmarshalStrict(body, &m); err != nil {
			sendErr(conn, err)
			return err
		}
		if _, err := d.Contact(contact.NodeID(m.Peer), m.Addr, m.Now); err != nil {
			sendErr(conn, err)
			return nil
		}
		return writeJSON(conn, mOK, okMsg{})
	case mStats:
		s := d.node.Stats()
		resp := statsRespMsg{
			Sent:      s.Sent,
			Forwarded: s.Forwarded,
			Carried:   s.Carried,
			Delivered: s.Delivered,
			Rejected:  s.Rejected,
			BufferLen: d.node.BufferLen(),
		}
		for _, rec := range d.node.DeliveryRecords() {
			resp.Deliveries = append(resp.Deliveries, deliveryRespWire{MsgID: rec.MsgID, Hops: rec.Hops})
		}
		return writeJSON(conn, mStatsResp, resp)
	case mQuit:
		_ = writeJSON(conn, mOK, okMsg{})
		go d.Close()
		return errQuit
	default:
		err := fmt.Errorf("unexpected control message type %d", typ)
		sendErr(conn, err)
		return err
	}
}

// peerConn is one outbound contact connection. Between contacts it is
// parked in Daemon.idle for the next contact to the same peer; a
// contact takes it out, and puts it back only when the contact ended
// cleanly with nothing left buffered. Any error closes it.
type peerConn struct {
	raw  net.Conn // the socket
	addr string   // the address it was dialed to
	// io refreshes the deadline around this contact's view of raw: raw
	// itself, or the chaos layer's per-attempt wrapper over it.
	io ioDeadlineConn
	// r reads through io for the socket's whole life, so the frames of
	// a contact cost one read each and no buffer is allocated per contact.
	r *bufio.Reader
	// faulted is set when this attempt's chaos slot wrapped the socket;
	// such a connection is never parked again.
	faulted bool
	// memo holds the offers the peer is known to have seen; it lives
	// and dies with the socket.
	memo seenMemo
}

func newPeerConn(raw net.Conn, addr string, timeout time.Duration) *peerConn {
	pc := &peerConn{raw: raw, addr: addr, io: ioDeadlineConn{Conn: raw, timeout: timeout}}
	pc.r = bufio.NewReader(&pc.io)
	return pc
}

// hello opens a contact on pc: it arms the contact's wall budget,
// writes the hello and reads the hello ack. stale reports a failure
// before any byte of the ack arrived — on a parked connection, the
// sign of a peer that closed it while it sat idle.
func (pc *peerConn) hello(m helloMsg, budget time.Duration) (ack helloAckMsg, stale bool, err error) {
	pc.io.arm(budget)
	if err := writeFrame(&pc.io, m.frame()); err != nil {
		return ack, true, err
	}
	if _, err := pc.r.Peek(1); err != nil {
		return ack, true, err
	}
	body, err := readBody(pc.r, mHelloAck)
	if err == nil {
		ack, err = decodeHelloAck(body)
	}
	return ack, false, err
}

// takeIdle removes and returns the parked connection to peer when it
// was dialed to addr; one to an older address of the peer is closed.
func (d *Daemon) takeIdle(peer contact.NodeID, addr string) *peerConn {
	d.mu.Lock()
	pc := d.idle[peer]
	delete(d.idle, peer)
	d.mu.Unlock()
	if pc != nil && pc.addr != addr {
		_ = pc.raw.Close()
		return nil
	}
	return pc
}

// park keeps pc for the next contact to peer, unless the daemon has
// stopped or another connection to the peer is already parked.
func (d *Daemon) park(peer contact.NodeID, pc *peerConn) {
	pc.io.Conn = pc.raw
	d.mu.Lock()
	_, taken := d.idle[peer]
	if !d.closed && !taken {
		d.idle[peer] = pc
		pc = nil
	}
	d.mu.Unlock()
	if pc != nil {
		_ = pc.raw.Close()
	}
}

// dialContact returns a connection for one contact attempt to peer:
// the parked one when there is one (reused), a fresh dial otherwise.
// Under chaos the parked connection is handed back through the chaos
// dialer, so every attempt still meets the partition schedule and
// consumes one slot, and a faulted slot wraps the socket for this
// attempt only.
func (d *Daemon) dialContact(peer contact.NodeID, addr string) (pc *peerConn, reused bool, err error) {
	dialer := func(a string) (net.Conn, error) {
		if pc = d.takeIdle(peer, a); pc != nil {
			reused = true
			return pc.raw, nil
		}
		raw, err := rawDial(a, d.cfg.Timeout)
		if err != nil {
			return nil, err
		}
		pc = newPeerConn(raw, a, d.cfg.Timeout)
		return raw, nil
	}
	ch := d.cfg.Chaos
	if ch == nil {
		_, err = dialer(addr)
		return pc, reused, err
	}
	conn, err := ch.DialPeer(d.cfg.ID, int(peer), addr, dialer)
	if err != nil {
		return nil, false, err
	}
	pc.io.Conn = conn
	pc.faulted = conn != pc.raw
	return pc, reused, nil
}

// Contact runs one live contact as the initiator, mirroring
// Network.Meet's order: the initiator offers first, then the peer.
// Custody is only released on a read accept-verdict, so a connection
// torn anywhere in the exchange leaves every unacknowledged onion with
// its current custodian — the next contact re-offers it.
//
// Failures during the contact preamble — the dial, the hello, the
// hello ack, anything before a custody hand-off could have begun — are
// retried here with jittered backoff behind a per-peer circuit
// breaker: nothing protocol-visible happened yet, so a retry is
// indistinguishable from a slightly later first attempt. The moment
// custody negotiation has begun in either direction the attempt is
// final: a retried offer whose verdict was lost could double custody,
// so the DTN discipline (re-offer at the NEXT contact) applies
// instead. A peer that breaks the protocol (errUnexpected) fails the
// contact at once too: a retry would meet the same peer.
func (d *Daemon) Contact(peer contact.NodeID, addr string, now float64) (node.MeetReport, error) {
	br := d.breakerFor(addr)
	deadline := time.Now().Add(retryBudget)
	var attempt int
	for {
		if wait := br.wait(time.Now()); wait > 0 {
			if time.Now().Add(wait).After(deadline) {
				return node.MeetReport{}, fmt.Errorf("cluster: contact %d->%d: circuit breaker open for %s", d.cfg.ID, peer, addr)
			}
			d.sleepRetry(wait)
		}
		rep, progressed, err := d.contactOnce(peer, addr, now)
		if err == nil {
			br.success()
			return rep, nil
		}
		br.failure(time.Now())
		if progressed || errors.Is(err, errUnexpected) {
			return rep, err
		}
		wait := backoff(attempt, d.jitterFloat)
		var blocked *chaos.BlockedError
		if errors.As(err, &blocked) && blocked.Wait > wait {
			wait = blocked.Wait
		}
		attempt++
		if time.Now().Add(wait).After(deadline) {
			return rep, fmt.Errorf("cluster: contact %d->%d: retries exhausted after %d attempts: %w", d.cfg.ID, peer, attempt, err)
		}
		d.sleepRetry(wait)
	}
}

// contactOnce is one attempt at a contact. progressed reports whether
// custody negotiation had begun — an offer written, or a peer offer
// received — before the failure; un-progressed attempts are safe to
// retry. A parked connection that fails before any byte of its hello
// ack is stale (the peer closed it while it sat idle): it is redialed
// once, at once, within this attempt, and the hello on the new socket
// lists every offer, since the old socket's memo went with it.
func (d *Daemon) contactOnce(peer contact.NodeID, addr string, now float64) (rep node.MeetReport, progressed bool, err error) {
	pc, reused, err := d.dialContact(peer, addr)
	if err != nil {
		return rep, false, err
	}
	d.node.Expire(now)
	offers := d.node.OffersTo(peer, d.cfg.Spray)
	hello := helloMsg{Version: protoVersion, From: d.cfg.ID, To: int(peer), Now: now, IDs: pc.memo.list(offers)}
	ack, stale, err := pc.hello(hello, d.cfg.ContactBudget)
	if err != nil && stale && reused && !pc.faulted {
		_ = pc.raw.Close()
		raw, derr := rawDial(addr, d.cfg.Timeout)
		if derr != nil {
			return rep, false, derr
		}
		pc = newPeerConn(raw, addr, d.cfg.Timeout)
		hello.IDs = offers
		ack, _, err = pc.hello(hello, d.cfg.ContactBudget)
	}
	if err != nil {
		_ = pc.raw.Close()
		return rep, false, fmt.Errorf("cluster: contact %d->%d: %w", d.cfg.ID, peer, err)
	}
	x := exchange{w: &pc.io, r: pc.r, memo: &pc.memo, rep: node.MeetReport{Contacts: 1}, frames: 2}
	ids, err := pc.memo.unseen(hello.IDs, ack.Seen)
	if err == nil && !ack.Done {
		err = d.offer(&x, ids)
		if err == nil {
			x.frames++
			err = writeFrame(x.w, endOffersMsg{Seen: d.node.Seen(ack.IDs)}.frame())
		}
		if err == nil {
			_, err = d.take(&x, mContactDone)
		}
	}
	if err != nil || pc.faulted || pc.r.Buffered() > 0 {
		_ = pc.raw.Close()
	} else {
		d.park(peer, pc)
	}
	if errors.Is(err, errUnexpected) {
		err = fmt.Errorf("cluster: contact %d->%d: %w", d.cfg.ID, peer, err)
	}
	if err != nil {
		return x.rep, x.progressed, err
	}
	col := obs.Active()
	if col != nil {
		col.Add(obs.ClusterContacts, 1)
		col.Observe(obs.HistClusterConnFrames, int64(x.frames))
	}
	x.rep.Observe(col, d.node.BufferLen())
	return x.rep, x.progressed, nil
}

// serveContact is the passive side of one contact: it answers the
// hello's inventory with its own, takes the initiator's offers, then
// offers its own unseen copies. It reports whether the contact ended
// cleanly, leaving the socket ready for the next hello.
func (d *Daemon) serveContact(w io.Writer, r *bufio.Reader, helloBody []byte, memo *seenMemo) bool {
	hello, err := decodeHello(helloBody)
	if err != nil {
		sendErr(w, err)
		return false
	}
	if hello.To != d.cfg.ID {
		sendErr(w, fmt.Errorf("contact addressed to node %d, reached node %d", hello.To, d.cfg.ID))
		return false
	}
	peer := contact.NodeID(hello.From)
	if memo.peer != peer {
		*memo = seenMemo{peer: peer}
	}
	d.node.Expire(hello.Now)
	offers := d.node.OffersTo(peer, d.cfg.Spray)
	if len(offers) > 0 {
		// The initiator holds, so has seen, every copy it lists.
		memo.add(hello.IDs...)
	}
	offers = memo.list(offers)
	ack := helloAckMsg{Seen: d.node.Seen(hello.IDs), IDs: offers}
	if len(offers) == 0 && !slices.Contains(ack.Seen, false) {
		// Nothing moves either way, so the ack ends the contact. This
		// side's share is observed before the ack releases the peer.
		ack.Done = true
		node.MeetReport{}.Observe(obs.Active(), d.node.BufferLen())
		return writeFrame(w, ack.frame()) == nil
	}
	if err := writeFrame(w, ack.frame()); err != nil {
		return false
	}
	x := exchange{w: w, r: r, memo: memo}
	body, err := d.take(&x, mEndOffers)
	var ids []string
	if err == nil {
		var end endOffersMsg
		if end, err = decodeEndOffers(body); err == nil {
			ids, err = memo.unseen(offers, end.Seen)
		}
	}
	if err != nil {
		if errors.Is(err, errUnexpected) {
			sendErr(w, fmt.Errorf("%w during offers", err))
		}
		return false
	}
	if d.offer(&x, ids) != nil {
		return false
	}
	// The initiator observes the contact and both directions' hand-offs;
	// only this side knows its own re-offer drops and occupancy. Both
	// are read before the peer is released to its next contact.
	node.MeetReport{Dropped: x.rep.Dropped}.Observe(obs.Active(), d.node.BufferLen())
	return writeMsg(w, mContactDone, nil) == nil
}

// exchange is one side's state in a live contact; both halves of the
// custody exchange run on it.
type exchange struct {
	w    io.Writer
	r    *bufio.Reader
	memo *seenMemo // remembers the copies the peer accepts
	rep  node.MeetReport
	// progressed turns true at the first offer byte of this contact
	// either way: from then on a failure is custody-ambiguous and the
	// attempt is final.
	progressed bool
	frames     int // frames read and written
}

// errUnexpected marks a peer that broke the contact protocol.
var errUnexpected = errors.New("protocol violation")

// seenMemo is one side's record, on one contact connection, of which
// of its own offers the peer is known to have seen: a seen flag of
// true, an ID the peer listed itself (it holds that copy), or an
// accept verdict (a message ID has one spelling, so the peer's seen
// log holds the ID as listed). A refusal proves nothing. A node's seen
// log only grows within its process, and a process's sockets die with
// it, so leaving a remembered ID out of an inventory has the outcome
// asking for its flag would have had: true, and no offer. list
// rebuilds the memo from each contact's inventory, so it never
// outgrows this side's offers to the peer.
type seenMemo struct {
	peer contact.NodeID // the responder's memo is for one initiator
	ids  map[string]struct{}
}

func (m *seenMemo) add(ids ...string) {
	for _, id := range ids {
		if m.ids == nil {
			m.ids = make(map[string]struct{})
		}
		m.ids[id] = struct{}{}
	}
}

// list narrows the memo to offers and returns, in order, the offers
// the peer is not known to have seen.
func (m *seenMemo) list(offers []string) []string {
	if len(m.ids) == 0 {
		return offers
	}
	var out []string
	var kept map[string]struct{}
	for _, id := range offers {
		if _, ok := m.ids[id]; !ok {
			out = append(out, id)
			continue
		}
		if kept == nil {
			kept = make(map[string]struct{})
		}
		kept[id] = struct{}{}
	}
	m.ids = kept
	return out
}

// unseen requires one seen flag per listed ID, remembers the flagged
// IDs and returns the others, in order.
func (m *seenMemo) unseen(ids []string, seen []bool) ([]string, error) {
	if len(seen) != len(ids) {
		return nil, fmt.Errorf("%w: %d seen flags for %d offer IDs", errUnexpected, len(seen), len(ids))
	}
	var out []string
	for i, id := range ids {
		if seen[i] {
			m.add(id)
		} else {
			out = append(out, id)
		}
	}
	return out, nil
}

// offer is the sending half of a contact: every copy the peer has not
// seen, in custody order, is framed, sent and settled by the peer's
// verdict before the next (stop-and-wait). A copy that left custody
// since the inventory is skipped. Custody is released only on a read
// accept-verdict.
func (d *Daemon) offer(x *exchange, ids []string) error {
	for _, id := range ids {
		frame, hops, ok := d.node.OfferFrame(id)
		if !ok {
			continue
		}
		// From the first offer byte on, a failure is custody-ambiguous:
		// the peer may or may not have ingested the copy, so no retry.
		x.progressed = true
		if err := writeFrame(x.w, offerFrame(hops, frame)); err != nil {
			return err
		}
		body, err := readBody(x.r, mVerdict)
		if err != nil {
			return err
		}
		m, err := decodeVerdict(body)
		if err != nil {
			return err
		}
		x.frames += 2
		v := node.Verdict{Accepted: m.Accepted, Delivered: m.Delivered, BufferFull: m.BufferFull, Damaged: m.Damaged}
		if v.Accepted {
			x.memo.add(id)
		}
		x.rep.Count(v, d.node.Settle(id, v))
	}
	return nil
}

// take is the receiving half of a contact: it answers each peer offer
// with this node's verdict until the peer sends end, whose body it
// returns.
func (d *Daemon) take(x *exchange, end byte) ([]byte, error) {
	for {
		typ, body, err := readMsg(x.r)
		if err != nil {
			return nil, err
		}
		x.frames++
		if typ == end {
			return body, nil
		}
		if typ != mOffer {
			return nil, fmt.Errorf("%w: message type %d", errUnexpected, typ)
		}
		// A received offer is about to be ingested; a lost verdict from
		// here on duplicates custody if the attempt were replayed.
		x.progressed = true
		hops, frame, err := decodeOffer(body)
		v := node.Verdict{Damaged: true, Err: err}
		if err == nil {
			v = d.node.Receive(frame, hops)
		}
		// The peer settles its copy; a drop is in its own report.
		x.rep.Count(v, false)
		m := verdictMsg{Accepted: v.Accepted, Delivered: v.Delivered, BufferFull: v.BufferFull, Damaged: v.Damaged}
		if v.Err != nil {
			m.Reason = v.Err.Error()
		}
		if err := writeFrame(x.w, m.frame()); err != nil {
			return nil, err
		}
		x.frames++
	}
}
