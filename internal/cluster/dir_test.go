package cluster

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/contact"
	"repro/internal/groups"
	"repro/internal/onion"
	"repro/internal/rng"
	"repro/internal/shamir"
)

// startDir launches a directory on an ephemeral loopback port.
func startDir(t *testing.T, cfg DirConfig) *Dir {
	t.Helper()
	d, err := NewDir(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// dirRequest performs one raw request round-trip against the directory
// socket, so tests exercise the real wire path.
func dirRequest(t *testing.T, addr string, typ byte, body any, wantTyp byte, out any) error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeJSON(conn, typ, body); err != nil {
		t.Fatal(err)
	}
	return readExpect(conn, wantTyp, out)
}

func register(t *testing.T, addr string, id int, inc uint64) (*welcomeMsg, error) {
	t.Helper()
	var w welcomeMsg
	req := registerMsg{Version: protoVersion, ID: id, Addr: "127.0.0.1:9", Incarnation: inc}
	if err := dirRequest(t, addr, mRegister, req, mWelcome, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// TestWelcomeRebuildsReferencePartition proves a welcome received over
// the socket reconstructs the exact partition an in-process
// node.NewNetwork run with the same seed would use, and that the
// recovered keys interoperate with the directory's own ciphers.
func TestWelcomeRebuildsReferencePartition(t *testing.T) {
	const seed = 42
	d := startDir(t, DirConfig{Nodes: 12, GroupSize: 4, Seed: seed})
	w, err := register(t, d.Addr(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.N != 12 || w.G != 4 {
		t.Fatalf("welcome shape %d/%d", w.N, w.G)
	}
	groupKeys, nodeKeys, err := recoverKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	view, err := buildView(w, groupKeys, nodeKeys)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := groups.NewPartition(12, 4, rng.New(seed).Split("partition"))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		if view.GroupOf(contact.NodeID(v)) != ref.GroupOf(contact.NodeID(v)) {
			t.Fatalf("node %d assigned differently from the reference partition", v)
		}
	}
	// A layer sealed by the directory's origin cipher must open with
	// the keys recovered from threshold shares.
	sealer, err := d.dir.GroupCipher(0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sealer.Seal([]byte("shares travelled over TCP"))
	if err != nil {
		t.Fatal(err)
	}
	member := view.Members(0)[0]
	opener, err := view.MemberCipher(member, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := opener.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "shares travelled over TCP" {
		t.Fatal("recovered key does not match the directory's")
	}
}

// TestThresholdRecovery proves the Shamir split behaves as a threshold
// scheme on the wire: two independently split welcomes recover the
// same keys, exactly Threshold shares are shipped, and Threshold-1
// shares reconstruct garbage.
func TestThresholdRecovery(t *testing.T) {
	d := startDir(t, DirConfig{Nodes: 6, GroupSize: 2, Seed: 9, Shares: 5, Threshold: 3})
	w0, err := register(t, d.Addr(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := register(t, d.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g0, n0, err := recoverKeys(w0)
	if err != nil {
		t.Fatal(err)
	}
	g1, n1, err := recoverKeys(w1)
	if err != nil {
		t.Fatal(err)
	}
	for gid, key := range g0 {
		if !bytes.Equal(key, g1[gid]) {
			t.Fatalf("group key %d recovered differently by the two joiners", gid)
		}
	}
	for v := range n0 {
		if !bytes.Equal(n0[v], n1[v]) {
			t.Fatalf("node key %d recovered differently by the two joiners", v)
		}
	}
	for _, kw := range w0.Keys {
		if len(kw.Shares) != 3 {
			t.Fatalf("%s key %d shipped %d shares, want exactly the threshold", kw.Kind, kw.Index, len(kw.Shares))
		}
	}
	// Below-threshold recovery: interpolation through 2 of 3 required
	// points lands on a different polynomial.
	kw := w0.Keys[0]
	partial := []shamir.Share{
		{X: kw.Shares[0].X, Y: kw.Shares[0].Y},
		{X: kw.Shares[1].X, Y: kw.Shares[1].Y},
	}
	wrong, err := shamir.Combine(partial)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(wrong, g0[onion.GroupID(kw.Index)]) {
		t.Fatal("2 shares of a 3-threshold key reconstructed the secret")
	}
}

// TestRegistrationDiscipline drives the incarnation rules over the
// socket: duplicates and stale registrations are rejected, restarts at
// a higher incarnation supersede, and leaves must quote the live
// incarnation.
func TestRegistrationDiscipline(t *testing.T) {
	d := startDir(t, DirConfig{Nodes: 5, GroupSize: 2, Seed: 3})
	if _, err := register(t, d.Addr(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := register(t, d.Addr(), 1, 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate registration: %v", err)
	}
	if _, err := register(t, d.Addr(), 1, 0); err == nil {
		t.Fatal("incarnation 0 accepted")
	}
	// Crash-restart: a higher incarnation supersedes and updates the
	// address.
	var w welcomeMsg
	req := registerMsg{Version: protoVersion, ID: 1, Addr: "127.0.0.1:10", Incarnation: 2}
	if err := dirRequest(t, d.Addr(), mRegister, req, mWelcome, &w); err != nil {
		t.Fatal(err)
	}
	if addr, ok := d.MemberAddr(1); !ok || addr != "127.0.0.1:10" {
		t.Fatalf("address after restart: %q, %v", addr, ok)
	}
	if regs := d.Audit().Registrations; regs[len(regs)-1] != (RegEvent{Node: 1, Incarnation: 2}) {
		t.Fatalf("last registration after restart: %+v", regs[len(regs)-1])
	}
	// The pre-restart incarnation is now stale everywhere.
	if _, err := register(t, d.Addr(), 1, 1); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale registration: %v", err)
	}
	if err := dirRequest(t, d.Addr(), mLeave, leaveMsg{ID: 1, Incarnation: 1}, mOK, nil); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale leave: %v", err)
	}
	if err := dirRequest(t, d.Addr(), mLeave, leaveMsg{ID: 1, Incarnation: 2}, mOK, nil); err != nil {
		t.Fatalf("live leave: %v", err)
	}
	if addr, ok := d.MemberAddr(1); ok {
		t.Fatalf("node 1 still registered at %q after leave", addr)
	}
	if got := d.Members(); got != 0 {
		t.Fatalf("%d members after leave", got)
	}
	// A departed node may rejoin at any higher incarnation.
	if _, err := register(t, d.Addr(), 1, 7); err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
}

// TestRegisterRejectsMalformedJoins covers the admission guards.
func TestRegisterRejectsMalformedJoins(t *testing.T) {
	d := startDir(t, DirConfig{Nodes: 5, GroupSize: 2, Seed: 3})
	cases := []struct {
		name string
		req  registerMsg
	}{
		{"version skew", registerMsg{Version: protoVersion + 1, ID: 0, Addr: "a:1", Incarnation: 1}},
		{"id out of range", registerMsg{Version: protoVersion, ID: 5, Addr: "a:1", Incarnation: 1}},
		{"negative id", registerMsg{Version: protoVersion, ID: -1, Addr: "a:1", Incarnation: 1}},
		{"no address", registerMsg{Version: protoVersion, ID: 0, Incarnation: 1}},
	}
	for _, tc := range cases {
		if err := dirRequest(t, d.Addr(), mRegister, tc.req, mWelcome, nil); err == nil {
			t.Fatalf("%s: admitted", tc.name)
		}
	}
	if got := d.Members(); got != 0 {
		t.Fatalf("%d members admitted by malformed joins", got)
	}
}

func TestDirConfigValidation(t *testing.T) {
	bad := []DirConfig{
		{Nodes: 2, GroupSize: 1},
		{Nodes: 5, GroupSize: 0},
		{Nodes: 5, GroupSize: 6},
		{Nodes: 5, GroupSize: 2, Shares: 2, Threshold: 3},
		{Nodes: 5, GroupSize: 2, Shares: 300, Threshold: 3},
	}
	for i, cfg := range bad {
		if _, err := NewDir(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
