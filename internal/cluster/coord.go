package cluster

// Coordinator: the control-plane client cmd/dtndir's replay mode uses
// to drive remote daemons — inject workload messages at their source
// nodes, fire contacts, collect stats, and shut the fleet down. One
// persistent control connection is kept per daemon address.

import (
	"net"
	"sync"
	"time"

	"repro/internal/contact"
	"repro/internal/node"
)

// Coordinator drives daemons over their control plane.
type Coordinator struct {
	timeout time.Duration

	mu    sync.Mutex
	conns map[string]net.Conn
}

// NewCoordinator builds a coordinator with the given per-request
// timeout (default 10s).
func NewCoordinator(timeout time.Duration) *Coordinator {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Coordinator{timeout: timeout, conns: make(map[string]net.Conn)}
}

// conn returns the persistent control connection to addr, dialing on
// first use.
func (co *Coordinator) conn(addr string) (net.Conn, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if c, ok := co.conns[addr]; ok {
		_ = c.SetDeadline(time.Now().Add(co.timeout))
		return c, nil
	}
	c, err := dial(addr, co.timeout)
	if err != nil {
		return nil, err
	}
	co.conns[addr] = c
	return c, nil
}

// drop discards a control connection after a transport error so the
// next request redials.
func (co *Coordinator) drop(addr string) {
	co.mu.Lock()
	if c, ok := co.conns[addr]; ok {
		_ = c.Close()
		delete(co.conns, addr)
	}
	co.mu.Unlock()
}

// request performs one control round-trip.
func (co *Coordinator) request(addr string, typ byte, body any, wantTyp byte, out any) error {
	c, err := co.conn(addr)
	if err != nil {
		return err
	}
	if err := writeJSON(c, typ, body); err != nil {
		co.drop(addr)
		return err
	}
	if err := readExpect(c, wantTyp, out); err != nil {
		if wantTyp != mOK {
			co.drop(addr)
		}
		return err
	}
	return nil
}

// Inject originates workload message m at the daemon listening on
// addr; seed must be the cluster's partition/workload seed so the
// daemon draws the message's path from the shared substream.
func (co *Coordinator) Inject(addr string, seed uint64, m Message) error {
	req := sendMsg{
		Src:     int(m.Src),
		Dst:     int(m.Dst),
		Relays:  m.Relays,
		Copies:  m.Copies,
		Payload: m.Payload,
		MsgID:   m.ID,
		Seed:    seed,
		Index:   m.Index,
	}
	return co.request(addr, mSend, req, mOK, nil)
}

// Contact instructs the daemon at addr to run a contact with peer
// (listening at peerAddr) at sim time now.
func (co *Coordinator) Contact(addr string, peer contact.NodeID, peerAddr string, now float64) error {
	return co.request(addr, mContact, contactMsg{Peer: int(peer), Addr: peerAddr, Now: now}, mOK, nil)
}

// RemoteStats is a daemon's stats snapshot as seen over the wire.
type RemoteStats struct {
	Stats      StatsSubset
	Rejected   int
	BufferLen  int
	Deliveries []node.DeliveryRecord
}

// Stats fetches a stats snapshot from the daemon at addr.
func (co *Coordinator) Stats(addr string) (RemoteStats, error) {
	var resp statsRespMsg
	if err := co.request(addr, mStats, struct{}{}, mStatsResp, &resp); err != nil {
		return RemoteStats{}, err
	}
	rs := RemoteStats{
		Stats: StatsSubset{
			Sent:      resp.Sent,
			Forwarded: resp.Forwarded,
			Carried:   resp.Carried,
			Delivered: resp.Delivered,
		},
		Rejected:  resp.Rejected,
		BufferLen: resp.BufferLen,
	}
	for _, d := range resp.Deliveries {
		rs.Deliveries = append(rs.Deliveries, node.DeliveryRecord{MsgID: d.MsgID, Hops: d.Hops})
	}
	return rs, nil
}

// Quit asks the daemon at addr to shut down and discards its control
// connection.
func (co *Coordinator) Quit(addr string) error {
	err := co.request(addr, mQuit, struct{}{}, mOK, nil)
	co.drop(addr)
	return err
}

// Close drops every control connection.
func (co *Coordinator) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for addr, c := range co.conns {
		_ = c.Close()
		delete(co.conns, addr)
	}
}
