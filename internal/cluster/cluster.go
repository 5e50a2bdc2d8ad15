package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/contact"
	"repro/internal/node"
)

// Config configures an in-process loopback cluster: one directory
// service plus one daemon per node, every process boundary a real TCP
// connection.
type Config struct {
	Nodes     int
	GroupSize int
	// Seed drives the group partition; a reference node.NewNetwork run
	// with the same seed routes over the identical partition.
	Seed        uint64
	BufferLimit int
	// ReofferLimit caps how many buffer-full refusals a carried copy
	// survives before its daemon drops it (0 = unlimited re-offers).
	ReofferLimit int
	Spray        bool
	Timeout      time.Duration
	// ContactBudget caps each contact connection's total wall time
	// (0 = uncapped); see DaemonConfig.ContactBudget.
	ContactBudget time.Duration
	// JoinWait bounds each daemon's directory-registration retries
	// (0 = a single attempt); see DaemonConfig.JoinWait.
	JoinWait time.Duration
	// Chaos, when set, is shared by every daemon: all outbound
	// connections pass through the seed-driven turbulence layer.
	Chaos *chaos.Chaos
}

// Cluster is a launched loopback cluster.
type Cluster struct {
	cfg     Config
	dir     *Dir
	daemons []*Daemon
}

// Launch starts the directory and all daemons. On any failure the
// already-started processes are torn down.
func Launch(cfg Config) (*Cluster, error) {
	dir, err := NewDir(DirConfig{
		Nodes:     cfg.Nodes,
		GroupSize: cfg.GroupSize,
		Seed:      cfg.Seed,
		Timeout:   cfg.Timeout,
	})
	if err != nil {
		return nil, err
	}
	if err := dir.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		dir:     dir,
		daemons: make([]*Daemon, cfg.Nodes),
	}
	for id := 0; id < cfg.Nodes; id++ {
		d, err := StartDaemon(DaemonConfig{
			ID:            id,
			DirAddr:       dir.Addr(),
			BufferLimit:   cfg.BufferLimit,
			ReofferLimit:  cfg.ReofferLimit,
			Spray:         cfg.Spray,
			Timeout:       cfg.Timeout,
			ContactBudget: cfg.ContactBudget,
			JoinWait:      cfg.JoinWait,
			Chaos:         cfg.Chaos,
		})
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("cluster: start daemon %d: %w", id, err)
		}
		c.daemons[id] = d
	}
	return c, nil
}

// Nodes returns the launched daemons in id order.
func (c *Cluster) Nodes() []*Daemon {
	return append([]*Daemon(nil), c.daemons...)
}

// Revalidate asks every daemon to re-register with the directory and
// verify its welcome still matches the joined view (see
// Daemon.Revalidate) — the reconciliation step after a directory
// blackout ends.
func (c *Cluster) Revalidate() error {
	var errs []error
	for _, d := range c.daemons {
		if d != nil {
			errs = append(errs, d.Revalidate())
		}
	}
	return errors.Join(errs...)
}

// Dir returns the directory service.
func (c *Cluster) Dir() *Dir { return c.dir }

// Daemon returns the daemon for node id.
func (c *Cluster) Daemon(id contact.NodeID) *Daemon {
	if id < 0 || int(id) >= len(c.daemons) || c.daemons[id] == nil {
		panic(fmt.Sprintf("cluster: no daemon for node %d", id))
	}
	return c.daemons[id]
}

// Close shuts down every daemon, then the directory.
func (c *Cluster) Close() error {
	var errs []error
	for _, d := range c.daemons {
		if d != nil {
			errs = append(errs, d.Close())
		}
	}
	errs = append(errs, c.dir.Close())
	return errors.Join(errs...)
}

// TotalStats aggregates all daemon node counters, the live analogue of
// Network.TotalStats.
func (c *Cluster) TotalStats() node.Stats {
	var total node.Stats
	for _, d := range c.daemons {
		if d != nil {
			total.Add(d.Node().Stats())
		}
	}
	return total
}
