package chaos

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Proxy is an in-process TCP proxy that forwards every accepted
// connection to a fixed target through this Chaos instance's
// connection profiles — the process-level analogue of the in-process
// chaos dialer. A blacked-out proxy refuses connections outright,
// simulating a dark directory without stopping it. Only this
// package's tests use it.
type Proxy struct {
	chaos  *Chaos
	target string
	lis    net.Listener
	dark   atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewProxy listens on an ephemeral loopback port and forwards to
// target under ch's profiles.
func NewProxy(target string, ch *Chaos) (*Proxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{chaos: ch, target: target, lis: lis, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// SetDark toggles blackout mode: while dark, accepted connections are
// closed immediately (the dialer sees a reset, as if the directory
// were down).
func (p *Proxy) SetDark(dark bool) { p.dark.Store(dark) }

// Close stops the listener and tears down every in-flight pipe.
func (p *Proxy) Close() {
	_ = p.lis.Close()
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.lis.Accept()
		if err != nil {
			return
		}
		if p.dark.Load() {
			countInjected()
			_ = down.Close()
			continue
		}
		up, err := p.chaos.DialDir(p.target, func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		})
		if err != nil {
			_ = down.Close()
			continue
		}
		p.track(down)
		p.track(up)
		p.wg.Add(2)
		go p.pipe(up, down)
		go p.pipe(down, up)
	}
}

func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src)
	// Tear down both halves so the opposite pipe unblocks.
	_ = dst.Close()
	_ = src.Close()
}
