package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/contact"
	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/onion"
	"repro/internal/rng"
	"repro/internal/shamir"
)

// DirConfig configures the directory service.
type DirConfig struct {
	Nodes     int
	GroupSize int
	// Seed drives the group partition. It MUST equal the seed of any
	// in-process reference run (node.NewNetwork draws the partition
	// from the same "partition" substream), or the two tiers route
	// over different group structures.
	Seed uint64
	// Shares and Threshold configure the Shamir split of every layer
	// key: each key is cut into Shares fragments of which any
	// Threshold reconstruct it. Defaults: 5 and 3.
	Shares    int
	Threshold int
	// Timeout bounds every per-connection socket operation (default
	// 10s).
	Timeout time.Duration
}

func (c *DirConfig) fill() error {
	if c.Nodes < 3 {
		return fmt.Errorf("cluster: need at least 3 nodes, got %d", c.Nodes)
	}
	if c.GroupSize < 1 || c.GroupSize > c.Nodes {
		return fmt.Errorf("cluster: group size %d out of [1, %d]", c.GroupSize, c.Nodes)
	}
	if c.Shares == 0 {
		c.Shares = 5
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.Threshold < 1 || c.Threshold > c.Shares || c.Shares > shamir.MaxShares {
		return fmt.Errorf("cluster: bad share split %d-of-%d", c.Threshold, c.Shares)
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return nil
}

// registration is one live membership entry.
type registration struct {
	addr        string
	incarnation uint64
}

// Dir is the bulletin-board/directory service: it owns the group
// partition and the symmetric layer keys, admits members, and hands
// each joiner the membership table plus every key as Shamir threshold
// shares. Stale and duplicate registrations are rejected by an
// incarnation discipline: a node's first registration carries
// incarnation 1, and every restart increments it — a registration at
// or below the recorded incarnation is a replay.
type Dir struct {
	cfg       DirConfig
	dir       *groups.Directory
	groupKeys map[onion.GroupID][]byte
	nodeKeys  [][]byte

	mu       sync.Mutex
	members  map[contact.NodeID]registration
	lis      net.Listener
	lastAddr string // actual bound address, so Restart rebinds the same port
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// incarnation numbers this directory's own lifetime; it starts at 1
	// and bumps on every Restart so returning nodes can assert the
	// bulletin board never moves backwards.
	incarnation uint64
	audit       DirAudit
}

// RegEvent is one admitted registration, in admission order.
type RegEvent struct {
	Node        int
	Incarnation uint64
}

// DirAudit is the directory's issuance ledger: how many welcomes were
// served and with how many Shamir shares each, plus every admitted
// registration. The invariant checker uses it to prove the share
// threshold was never exceeded (each welcome carries exactly Threshold
// shares per key — the minimum that reconstructs) even across
// directory crashes and restarts.
type DirAudit struct {
	Welcomes      int
	MinShares     int // fewest shares any welcome carried per key
	MaxShares     int // most shares any welcome carried per key
	Threshold     int
	Incarnation   uint64
	Registrations []RegEvent
}

// NewDir provisions the partition and key material without opening a
// socket; Start makes it reachable.
func NewDir(cfg DirConfig) (*Dir, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	dir, err := groups.NewPartition(cfg.Nodes, cfg.GroupSize, root.Split("partition"))
	if err != nil {
		return nil, err
	}
	groupKeys := make(map[onion.GroupID][]byte, dir.NumGroups())
	for gid := 0; gid < dir.NumGroups(); gid++ {
		key, err := onion.GenerateKey()
		if err != nil {
			return nil, err
		}
		groupKeys[onion.GroupID(gid)] = key
	}
	nodeKeys := make([][]byte, cfg.Nodes)
	for v := range nodeKeys {
		if nodeKeys[v], err = onion.GenerateKey(); err != nil {
			return nil, err
		}
	}
	if err := dir.InstallSymmetricKeys(groupKeys, nodeKeys); err != nil {
		return nil, err
	}
	return &Dir{
		cfg:         cfg,
		dir:         dir,
		groupKeys:   groupKeys,
		nodeKeys:    nodeKeys,
		members:     make(map[contact.NodeID]registration),
		conns:       make(map[net.Conn]struct{}),
		incarnation: 1,
	}, nil
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral loopback
// port) and serves requests until Close.
func (d *Dir) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: dir listen: %w", err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = lis.Close()
		return errors.New("cluster: dir already closed")
	}
	d.lis = lis
	d.lastAddr = lis.Addr().String()
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(lis)
	return nil
}

// Stop simulates a directory crash: the listener and every open
// connection die and the volatile membership table is lost, while the
// partition and key material — provisioned once in NewDir — survive,
// as a deployment's would on disk. Regenerating keys instead would
// silently orphan every in-flight onion. Restart brings the directory
// back on the same address at the next incarnation.
func (d *Dir) Stop() {
	d.mu.Lock()
	d.closed = true
	lis := d.lis
	d.lis = nil
	for conn := range d.conns {
		_ = conn.Close()
	}
	d.members = make(map[contact.NodeID]registration)
	d.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	d.wg.Wait()
}

// Restart brings a stopped directory back on its previous address at
// the next incarnation. Membership starts empty — nodes reconcile by
// re-registering (Daemon.Revalidate) — while partition and keys are
// the ones provisioned in NewDir, so welcomes served before and after
// the crash are interchangeable.
func (d *Dir) Restart() error {
	d.mu.Lock()
	if !d.closed {
		d.mu.Unlock()
		return errors.New("cluster: dir is still running")
	}
	addr := d.lastAddr
	if addr == "" {
		d.mu.Unlock()
		return errors.New("cluster: dir was never started")
	}
	d.closed = false
	d.incarnation++
	d.mu.Unlock()
	if err := d.Start(addr); err != nil {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		return err
	}
	return nil
}

// Audit returns a snapshot of the issuance ledger.
func (d *Dir) Audit() DirAudit {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.audit
	out.Threshold = d.cfg.Threshold
	out.Incarnation = d.incarnation
	out.Registrations = append([]RegEvent(nil), d.audit.Registrations...)
	return out
}

// Addr returns the listening address.
func (d *Dir) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lis == nil {
		return ""
	}
	return d.lis.Addr().String()
}

// Members returns the number of currently registered nodes.
func (d *Dir) Members() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.members)
}

// MemberAddr returns the registered address of node id, if any.
func (d *Dir) MemberAddr(id contact.NodeID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	reg, ok := d.members[id]
	return reg.addr, ok
}

// Close stops the listener and waits for in-flight connections.
func (d *Dir) Close() error {
	d.mu.Lock()
	d.closed = true
	lis := d.lis
	for conn := range d.conns {
		_ = conn.Close()
	}
	d.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	d.wg.Wait()
	return err
}

func (d *Dir) acceptLoop(lis net.Listener) {
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

func (d *Dir) serve(raw net.Conn) {
	defer d.wg.Done()
	defer func() {
		_ = raw.Close()
		d.mu.Lock()
		delete(d.conns, raw)
		d.mu.Unlock()
	}()
	// Per-I/O deadline refresh: a slow-but-progressing welcome download
	// survives, a stalled peer is torn down within Timeout. The raw
	// conn stays keyed in d.conns so Close() can tear it down.
	conn := withIODeadline(raw, d.cfg.Timeout)
	typ, body, err := readMsg(conn)
	if err != nil {
		return
	}
	switch typ {
	case mRegister:
		var reg registerMsg
		if err := unmarshalStrict(body, &reg); err != nil {
			sendErr(conn, err)
			return
		}
		welcome, err := d.register(reg)
		if err != nil {
			sendErr(conn, err)
			return
		}
		_ = writeJSON(conn, mWelcome, welcome)
	case mLeave:
		var q leaveMsg
		if err := unmarshalStrict(body, &q); err != nil {
			sendErr(conn, err)
			return
		}
		if err := d.leave(q); err != nil {
			sendErr(conn, err)
			return
		}
		_ = writeJSON(conn, mOK, okMsg{})
	default:
		sendErr(conn, fmt.Errorf("directory does not handle message type %d", typ))
	}
}

// register admits (or re-admits) a node. It enforces the incarnation
// discipline and rejects malformed joins.
func (d *Dir) register(reg registerMsg) (*welcomeMsg, error) {
	if reg.Version != protoVersion {
		return nil, fmt.Errorf("protocol version %d, want %d", reg.Version, protoVersion)
	}
	if reg.ID < 0 || reg.ID >= d.cfg.Nodes {
		return nil, fmt.Errorf("node id %d out of [0, %d)", reg.ID, d.cfg.Nodes)
	}
	if reg.Addr == "" {
		return nil, errors.New("registration without an address")
	}
	if reg.Incarnation == 0 {
		return nil, errors.New("registration with incarnation 0")
	}
	d.mu.Lock()
	if cur, ok := d.members[contact.NodeID(reg.ID)]; ok {
		if reg.Incarnation == cur.incarnation {
			d.mu.Unlock()
			return nil, fmt.Errorf("duplicate registration for node %d at incarnation %d", reg.ID, reg.Incarnation)
		}
		if reg.Incarnation < cur.incarnation {
			d.mu.Unlock()
			return nil, fmt.Errorf("stale registration for node %d: incarnation %d < %d", reg.ID, reg.Incarnation, cur.incarnation)
		}
	}
	d.members[contact.NodeID(reg.ID)] = registration{addr: reg.Addr, incarnation: reg.Incarnation}
	d.audit.Registrations = append(d.audit.Registrations, RegEvent{Node: reg.ID, Incarnation: reg.Incarnation})
	d.mu.Unlock()
	if c := obs.Active(); c != nil {
		c.Add(obs.ClusterRegistrations, 1)
	}
	return d.welcome()
}

// leave removes a membership entry when the departing incarnation
// matches the live one (a stale leave from a pre-restart incarnation
// must not evict the restarted node).
func (d *Dir) leave(q leaveMsg) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.members[contact.NodeID(q.ID)]
	if !ok {
		return fmt.Errorf("node %d not registered", q.ID)
	}
	if q.Incarnation != cur.incarnation {
		return fmt.Errorf("stale leave for node %d: incarnation %d != %d", q.ID, q.Incarnation, cur.incarnation)
	}
	delete(d.members, contact.NodeID(q.ID))
	return nil
}

// welcome builds the membership + key bundle a joiner receives. Every
// key is split fresh per join (shares are single-use transport
// encoding, not stored), and exactly Threshold shares are sent — the
// minimum that reconstructs.
func (d *Dir) welcome() (*welcomeMsg, error) {
	assign := d.dir.Assignment()
	w := &welcomeMsg{
		N:          d.cfg.Nodes,
		G:          d.cfg.GroupSize,
		Assignment: make([]int32, len(assign)),
		Threshold:  d.cfg.Threshold,
	}
	for i, gid := range assign {
		w.Assignment[i] = int32(gid)
	}
	addKey := func(kind string, index int, key []byte) error {
		shares, err := shamir.Split(key, d.cfg.Shares, d.cfg.Threshold)
		if err != nil {
			return fmt.Errorf("split %s key %d: %w", kind, index, err)
		}
		kw := keyWire{Kind: kind, Index: index, Shares: make([]shareWire, d.cfg.Threshold)}
		for j := 0; j < d.cfg.Threshold; j++ {
			kw.Shares[j] = shareWire{X: shares[j].X, Y: shares[j].Y}
		}
		w.Keys = append(w.Keys, kw)
		return nil
	}
	for gid := 0; gid < d.dir.NumGroups(); gid++ {
		if err := addKey("group", gid, d.groupKeys[onion.GroupID(gid)]); err != nil {
			return nil, err
		}
	}
	for v, key := range d.nodeKeys {
		if err := addKey("node", v, key); err != nil {
			return nil, err
		}
	}
	minS, maxS := int(^uint(0)>>1), 0
	for _, kw := range w.Keys {
		if len(kw.Shares) < minS {
			minS = len(kw.Shares)
		}
		if len(kw.Shares) > maxS {
			maxS = len(kw.Shares)
		}
	}
	d.mu.Lock()
	w.DirIncarnation = d.incarnation
	d.audit.Welcomes++
	if d.audit.Welcomes == 1 || minS < d.audit.MinShares {
		d.audit.MinShares = minS
	}
	if maxS > d.audit.MaxShares {
		d.audit.MaxShares = maxS
	}
	d.mu.Unlock()
	return w, nil
}

// recoverKeys reconstructs the layer keys from a welcome's threshold
// shares and verifies each recovered key has the expected size.
func recoverKeys(w *welcomeMsg) (map[onion.GroupID][]byte, [][]byte, error) {
	groupKeys := make(map[onion.GroupID][]byte)
	nodeKeys := make([][]byte, w.N)
	for _, kw := range w.Keys {
		shares := make([]shamir.Share, len(kw.Shares))
		for j, s := range kw.Shares {
			shares[j] = shamir.Share{X: s.X, Y: s.Y}
		}
		key, err := shamir.Combine(shares)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: combine %s key %d: %w", kw.Kind, kw.Index, err)
		}
		if len(key) != onion.KeySize {
			return nil, nil, fmt.Errorf("cluster: recovered %s key %d has %d bytes", kw.Kind, kw.Index, len(key))
		}
		switch kw.Kind {
		case "group":
			groupKeys[onion.GroupID(kw.Index)] = key
		case "node":
			if kw.Index < 0 || kw.Index >= w.N {
				return nil, nil, fmt.Errorf("cluster: node key index %d out of range", kw.Index)
			}
			nodeKeys[kw.Index] = key
		default:
			return nil, nil, fmt.Errorf("cluster: unknown key kind %q", kw.Kind)
		}
	}
	for v, key := range nodeKeys {
		if key == nil {
			return nil, nil, fmt.Errorf("cluster: welcome missing node key %d", v)
		}
	}
	return groupKeys, nodeKeys, nil
}
