package cluster_test

// Connection-lifecycle tests for the per-peer contact connection: a
// daemon keeps one idle outbound connection per peer, a contact is a
// hello on it, and a connection the peer closed while it sat idle is
// redialed within the same attempt.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/node"
	"repro/internal/obs"
)

const reuseMsg = "000102030405060708090a0b0c0d0e0f"

// launchReuseTrio launches the 3-node topology of the fault suite:
// singleton groups force 0 -> 1 to route through node 2.
func launchReuseTrio(t *testing.T, budget time.Duration) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Launch(cluster.Config{Nodes: 3, GroupSize: 1, Seed: 21, Timeout: 5 * time.Second, ContactBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestRestartedPeerIsRedialedOnce: node 0 holds an idle connection to
// node 2 when node 2 is killed and restarted. The next contact costs
// exactly one new dial, no retry and no breaker failure, moves the
// custody it should, and the invariants stay clean. On the same address
// the parked connection is stale and redialed inside the attempt; on a
// new one it is dropped before any hello.
func TestRestartedPeerIsRedialedOnce(t *testing.T) {
	for _, sameAddr := range []bool{true, false} {
		name := "new-address"
		if sameAddr {
			name = "same-address"
		}
		t.Run(name, func(t *testing.T) {
			c := launchReuseTrio(t, 0)
			d0, d1, d2 := c.Daemon(0), c.Daemon(1), c.Daemon(2)
			// An idle contact parks node 0's connection to node 2.
			if rep, err := d0.Contact(2, d2.Addr(), 0.5); err != nil || rep.Offered != 0 {
				t.Fatalf("idle contact: %+v, %v", rep, err)
			}
			spec := node.SendSpec{Dst: 1, Payload: []byte("redial"), Relays: 1, Copies: 1, ID: reuseMsg}
			if _, err := d0.Send(spec, cluster.PathStream(21, 0)); err != nil {
				t.Fatal(err)
			}
			old := d2.Addr()
			d2.Kill()
			if sameAddr {
				d2.SetListenAddr(old)
			}
			if err := d2.Restart(true); err != nil {
				t.Fatal(err)
			}
			if got := d2.Addr() == old; got != sameAddr {
				t.Fatalf("restarted on %s (was %s), want same address %v", d2.Addr(), old, sameAddr)
			}

			// One more failure would open the breaker, so a single failed
			// attempt shows as breaker.opens.
			d0.PreloadBreakerFailures(d2.Addr(), cluster.BreakerThreshold-1)
			col := obs.NewCollector()
			obs.Install(col)
			rep, err := d0.Contact(2, d2.Addr(), 1)
			obs.Install(nil)
			if err != nil {
				t.Fatalf("contact after the restart: %v", err)
			}
			if rep.Transfers != 1 {
				t.Fatalf("contact after the restart = %+v, want one transfer", rep)
			}
			for _, k := range []struct {
				name string
				got  int64
				want int64
			}{
				{"cluster.dials", col.Get(obs.ClusterDials), 1},
				{"retry.attempts", col.Get(obs.RetryAttempts), 0},
				{"breaker.opens", col.Get(obs.BreakerOpens), 0},
			} {
				if k.got != k.want {
					t.Errorf("%s = %d, want %d", k.name, k.got, k.want)
				}
			}

			if _, err := d2.Contact(1, d1.Addr(), 2); err != nil {
				t.Fatal(err)
			}
			rep2 := invariant.Check(c, invariant.Spec{Messages: []invariant.Message{{ID: reuseMsg, Src: 0, Dst: 1, Copies: 1}}})
			if !rep2.Clean() {
				t.Fatalf("invariants after the redial: %v", rep2.Err())
			}
			if _, ok := d1.Node().DeliveredHops(reuseMsg); !ok {
				t.Fatal("message not delivered")
			}
		})
	}
}

// TestContactBudgetIsPerContact: two contacts on one reused connection
// each fit ContactBudget, while the wall from the first hello to the
// end of the second exceeds it. Both sides re-arm the budget at each
// hello, so both contacts succeed on the one dialed connection.
func TestContactBudgetIsPerContact(t *testing.T) {
	const budget = 300 * time.Millisecond
	c := launchReuseTrio(t, budget)
	d0, d2 := c.Daemon(0), c.Daemon(2)
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)

	start := time.Now()
	if _, err := d0.Contact(2, d2.Addr(), 0.5); err != nil {
		t.Fatalf("first contact: %v", err)
	}
	time.Sleep(budget + 100*time.Millisecond)
	spec := node.SendSpec{Dst: 1, Payload: []byte("budget"), Relays: 1, Copies: 1, ID: reuseMsg}
	if _, err := d0.Send(spec, cluster.PathStream(21, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := d0.Contact(2, d2.Addr(), 1)
	if err != nil {
		t.Fatalf("second contact, %v after the first hello: %v", time.Since(start), err)
	}
	if time.Since(start) <= budget {
		t.Fatalf("both contacts took %v, want more than the %v budget", time.Since(start), budget)
	}
	if rep.Transfers != 1 {
		t.Fatalf("second contact = %+v, want one transfer", rep)
	}
	if dials, retries := col.Get(obs.ClusterDials), col.Get(obs.RetryAttempts); dials != 1 || retries != 0 {
		t.Fatalf("%d dials and %d retries, want both contacts on one connection", dials, retries)
	}
}
