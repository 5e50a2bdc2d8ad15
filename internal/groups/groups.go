// Package groups implements onion group formation and key management
// (Sec. III-A): the n nodes of a DTN are partitioned into n/g groups of
// size g, every member of a group shares the key that peels the
// corresponding onion layer, and a source selects K groups uniformly at
// random as the relay sequence R_1, ..., R_K of a message.
//
// Two selection modes are provided:
//
//   - Partition mode (Directory): the paper's default for random
//     contact graphs. Groups are disjoint; if n is not divisible by g
//     the last group is smaller ("some onion groups may have different
//     group sizes", Sec. V).
//   - Ad-hoc mode (AdHoc): used when the population is too small for K
//     disjoint groups of size g, as in the Cambridge trace (12 nodes,
//     g = 10, K = 3). Groups are independent random g-subsets and may
//     overlap, preserving the anycast forwarding property.
package groups

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"

	"repro/internal/contact"
	"repro/internal/onion"
	"repro/internal/rng"
)

// Directory is a partition of n nodes into onion groups, with optional
// per-group and per-node layer keys.
type Directory struct {
	n, g    int
	members [][]contact.NodeID // group id -> members
	byNode  []onion.GroupID    // node -> its group
	// Sealing (source-side) and opening (member-side) layer ciphers.
	// With symmetric provisioning the two coincide; with hybrid
	// provisioning sources hold only public keys.
	group     map[onion.GroupID]onion.Cipher // seal side
	groupOpen map[onion.GroupID]onion.Cipher // open side
	node      []onion.Cipher                 // destination seal side
	nodeOpen  []onion.Cipher                 // destination open side
}

// NewPartition randomly partitions n nodes into ceil(n/g) groups of
// size at most g. The partition is uniform over node assignments.
func NewPartition(n, g int, s *rng.Stream) (*Directory, error) {
	if n < 1 {
		return nil, fmt.Errorf("groups: need at least one node, got %d", n)
	}
	if g < 1 || g > n {
		return nil, fmt.Errorf("groups: group size %d out of [1, %d]", g, n)
	}
	perm := s.Perm(n)
	numGroups := (n + g - 1) / g
	d := &Directory{
		n:       n,
		g:       g,
		members: make([][]contact.NodeID, numGroups),
		byNode:  make([]onion.GroupID, n),
	}
	for idx, node := range perm {
		gid := idx / g
		d.members[gid] = append(d.members[gid], contact.NodeID(node))
		d.byNode[node] = onion.GroupID(gid)
	}
	return d, nil
}

// N returns the number of nodes.
func (d *Directory) N() int { return d.n }

// GroupSize returns the nominal group size g.
func (d *Directory) GroupSize() int { return d.g }

// NumGroups returns the number of groups in the partition.
func (d *Directory) NumGroups() int { return len(d.members) }

// GroupOf returns the group containing node v.
func (d *Directory) GroupOf(v contact.NodeID) onion.GroupID {
	if v < 0 || int(v) >= d.n {
		panic(fmt.Sprintf("groups: node %d out of range", v))
	}
	return d.byNode[v]
}

// Members returns the members of group id. The returned slice must not
// be modified.
func (d *Directory) Members(id onion.GroupID) []contact.NodeID {
	if id < 0 || int(id) >= len(d.members) {
		panic(fmt.Sprintf("groups: group %d out of range", id))
	}
	return d.members[id]
}

// Contains reports whether node v belongs to group id.
func (d *Directory) Contains(id onion.GroupID, v contact.NodeID) bool {
	return d.GroupOf(v) == id
}

// Validate checks the partition invariants: every node in exactly one
// group, group sizes in {g, n mod g}.
func (d *Directory) Validate() error {
	seen := make([]bool, d.n)
	for gid, ms := range d.members {
		if len(ms) == 0 {
			return fmt.Errorf("groups: group %d is empty", gid)
		}
		if len(ms) > d.g {
			return fmt.Errorf("groups: group %d has %d members, max %d", gid, len(ms), d.g)
		}
		for _, v := range ms {
			if v < 0 || int(v) >= d.n {
				return fmt.Errorf("groups: group %d contains invalid node %d", gid, v)
			}
			if seen[v] {
				return fmt.Errorf("groups: node %d appears in multiple groups", v)
			}
			seen[v] = true
			if d.byNode[v] != onion.GroupID(gid) {
				return fmt.Errorf("groups: index inconsistency for node %d", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("groups: node %d not assigned to any group", v)
		}
	}
	return nil
}

// ProvisionKeys generates AES group keys (shared among group members)
// and per-node destination keys, enabling real onion construction.
// The paper's protocols establish these via ABE/IBC; see package onion
// for the substitution rationale. With shared symmetric keys, any
// party that can ADDRESS a group (including sources) can also PEEL its
// layers; use ProvisionHybridKeys when that capability split matters.
func (d *Directory) ProvisionKeys() error {
	group := make(map[onion.GroupID]onion.Cipher, len(d.members))
	for gid := range d.members {
		key, err := onion.GenerateKey()
		if err != nil {
			return fmt.Errorf("groups: provision group %d: %w", gid, err)
		}
		c, err := onion.NewSymmetricCipher(key)
		if err != nil {
			return fmt.Errorf("groups: provision group %d: %w", gid, err)
		}
		group[onion.GroupID(gid)] = c
	}
	node := make([]onion.Cipher, d.n)
	for v := range node {
		key, err := onion.GenerateKey()
		if err != nil {
			return fmt.Errorf("groups: provision node %d: %w", v, err)
		}
		c, err := onion.NewSymmetricCipher(key)
		if err != nil {
			return fmt.Errorf("groups: provision node %d: %w", v, err)
		}
		node[v] = c
	}
	d.group, d.groupOpen = group, group
	d.node, d.nodeOpen = node, node
	return nil
}

// ProvisionHybridKeys generates per-group and per-node RSA keypairs of
// the given size (>= 1024 bits; use 2048+ outside tests). Unlike the
// shared symmetric keys of ProvisionKeys, the seal side (GroupCipher,
// NodeCipher — what sources use to build onions) holds only PUBLIC
// keys: a source can address any group without gaining the ability to
// peel anyone's layers, matching classic onion routing's trust model
// (Fig. 1). Key generation costs ~100 ms per 2048-bit key.
func (d *Directory) ProvisionHybridKeys(bits int) error {
	if bits < 1024 {
		return fmt.Errorf("groups: hybrid keys need >= 1024 bits, got %d", bits)
	}
	groupSeal := make(map[onion.GroupID]onion.Cipher, len(d.members))
	groupOpen := make(map[onion.GroupID]onion.Cipher, len(d.members))
	for gid := range d.members {
		priv, err := rsa.GenerateKey(rand.Reader, bits)
		if err != nil {
			return fmt.Errorf("groups: provision group %d: %w", gid, err)
		}
		open, err := onion.NewHybridCipher(priv)
		if err != nil {
			return err
		}
		seal, err := onion.NewHybridSealer(&priv.PublicKey)
		if err != nil {
			return err
		}
		groupSeal[onion.GroupID(gid)] = seal
		groupOpen[onion.GroupID(gid)] = open
	}
	nodeSeal := make([]onion.Cipher, d.n)
	nodeOpen := make([]onion.Cipher, d.n)
	for v := range nodeSeal {
		priv, err := rsa.GenerateKey(rand.Reader, bits)
		if err != nil {
			return fmt.Errorf("groups: provision node %d: %w", v, err)
		}
		open, err := onion.NewHybridCipher(priv)
		if err != nil {
			return err
		}
		seal, err := onion.NewHybridSealer(&priv.PublicKey)
		if err != nil {
			return err
		}
		nodeSeal[v] = seal
		nodeOpen[v] = open
	}
	d.group, d.groupOpen = groupSeal, groupOpen
	d.node, d.nodeOpen = nodeSeal, nodeOpen
	return nil
}

// GroupCipher returns the SEAL-side layer cipher of group id — what a
// source needs to address the group. With symmetric keys it can also
// open; with hybrid keys it is public-key-only. An error is returned
// if keys were not provisioned.
func (d *Directory) GroupCipher(id onion.GroupID) (onion.Cipher, error) {
	if d.group == nil {
		return nil, errors.New("groups: keys not provisioned")
	}
	c, ok := d.group[id]
	if !ok {
		return nil, fmt.Errorf("groups: no cipher for group %d", id)
	}
	return c, nil
}

// NodeCipher returns the SEAL-side destination-layer cipher of node v
// — what a source needs to address it. An error is returned if keys
// were not provisioned.
func (d *Directory) NodeCipher(v contact.NodeID) (onion.Cipher, error) {
	if d.node == nil {
		return nil, errors.New("groups: keys not provisioned")
	}
	if v < 0 || int(v) >= d.n {
		return nil, fmt.Errorf("groups: node %d out of range", v)
	}
	return d.node[v], nil
}

// SelectPath selects K distinct onion groups uniformly at random,
// excluding the groups containing src and dst so that routing paths
// stay acyclic (the assumption of Sec. IV-E). It returns the group IDs
// in travel order R_1, ..., R_K.
func (d *Directory) SelectPath(src, dst contact.NodeID, k int, s *rng.Stream) ([]onion.GroupID, error) {
	if k < 1 {
		return nil, fmt.Errorf("groups: need at least one relay group, got %d", k)
	}
	exclude := map[onion.GroupID]bool{d.GroupOf(src): true, d.GroupOf(dst): true}
	candidates := make([]onion.GroupID, 0, len(d.members))
	for gid := range d.members {
		if !exclude[onion.GroupID(gid)] {
			candidates = append(candidates, onion.GroupID(gid))
		}
	}
	if len(candidates) < k {
		return nil, fmt.Errorf("groups: only %d eligible groups for a %d-relay path", len(candidates), k)
	}
	picks := s.Sample(len(candidates), k)
	path := make([]onion.GroupID, k)
	for i, p := range picks {
		path[i] = candidates[p]
	}
	return path, nil
}

// PathMembers expands a group-ID path into member sets in travel order.
func (d *Directory) PathMembers(path []onion.GroupID) [][]contact.NodeID {
	out := make([][]contact.NodeID, len(path))
	for i, gid := range path {
		out[i] = d.Members(gid)
	}
	return out
}

// AdHoc samples K onion groups of size (up to) g from the n-node
// population, excluding the listed nodes (typically source and
// destination). Groups may overlap when the population is small — the
// Cambridge-trace regime (n = 12, g = 10, K = 3). When fewer than g
// candidates exist, every group is the full candidate set.
func AdHoc(n, g, k int, exclude []contact.NodeID, s *rng.Stream) ([][]contact.NodeID, error) {
	if n < 1 {
		return nil, fmt.Errorf("groups: need at least one node, got %d", n)
	}
	if g < 1 {
		return nil, fmt.Errorf("groups: group size %d must be positive", g)
	}
	if k < 1 {
		return nil, fmt.Errorf("groups: need at least one relay group, got %d", k)
	}
	skip := make(map[contact.NodeID]bool, len(exclude))
	for _, v := range exclude {
		skip[v] = true
	}
	candidates := make([]contact.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if !skip[contact.NodeID(v)] {
			candidates = append(candidates, contact.NodeID(v))
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("groups: no candidate relay nodes")
	}
	size := g
	if size > len(candidates) {
		size = len(candidates)
	}
	out := make([][]contact.NodeID, k)
	for i := range out {
		picks := s.Sample(len(candidates), size)
		group := make([]contact.NodeID, size)
		for j, p := range picks {
			group[j] = candidates[p]
		}
		out[i] = group
	}
	return out, nil
}
