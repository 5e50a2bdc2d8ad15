package groups

// Client-side directory views: a daemon that joins the network through
// a directory service (internal/cluster) does not run NewPartition —
// it receives the node->group assignment and the symmetric layer keys
// over the wire and reconstructs an equivalent Directory locally.
// NewFromAssignment rebuilds the partition structure;
// InstallSymmetricKeys equips it with externally distributed keys.

import (
	"errors"
	"fmt"

	"repro/internal/contact"
	"repro/internal/onion"
)

// Assignment returns a copy of the node -> group table, the wire
// representation a directory service distributes to joining nodes.
func (d *Directory) Assignment() []onion.GroupID {
	out := make([]onion.GroupID, len(d.byNode))
	copy(out, d.byNode)
	return out
}

// NewFromAssignment reconstructs a Directory from an explicit
// node -> group assignment with nominal group size g. The resulting
// directory is structurally identical to the one the assignment was
// taken from (Validate-clean, same membership), so protocol decisions
// (eligibility, path selection support) agree across processes.
func NewFromAssignment(byNode []onion.GroupID, g int) (*Directory, error) {
	n := len(byNode)
	if n < 1 {
		return nil, errors.New("groups: empty assignment")
	}
	if g < 1 || g > n {
		return nil, fmt.Errorf("groups: group size %d out of [1, %d]", g, n)
	}
	numGroups := 0
	for v, gid := range byNode {
		if gid < 0 {
			return nil, fmt.Errorf("groups: node %d assigned to negative group %d", v, gid)
		}
		if int(gid) >= n {
			return nil, fmt.Errorf("groups: node %d assigned to group %d beyond population", v, gid)
		}
		if int(gid)+1 > numGroups {
			numGroups = int(gid) + 1
		}
	}
	d := &Directory{
		n:       n,
		g:       g,
		members: make([][]contact.NodeID, numGroups),
		byNode:  make([]onion.GroupID, n),
	}
	copy(d.byNode, byNode)
	for v, gid := range byNode {
		d.members[gid] = append(d.members[gid], contact.NodeID(v))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// InstallSymmetricKeys equips the directory with externally
// distributed AES layer keys (one per group, one per node), the
// symmetric trust model of ProvisionKeys: seal and open sides
// coincide. Key material arrives from a directory service (typically
// recovered from shamir threshold shares).
func (d *Directory) InstallSymmetricKeys(groupKeys map[onion.GroupID][]byte, nodeKeys [][]byte) error {
	if len(nodeKeys) != d.n {
		return fmt.Errorf("groups: %d node keys for %d nodes", len(nodeKeys), d.n)
	}
	group := make(map[onion.GroupID]onion.Cipher, len(d.members))
	for gid := range d.members {
		key, ok := groupKeys[onion.GroupID(gid)]
		if !ok {
			return fmt.Errorf("groups: no key for group %d", gid)
		}
		c, err := onion.NewSymmetricCipher(key)
		if err != nil {
			return fmt.Errorf("groups: install group %d: %w", gid, err)
		}
		group[onion.GroupID(gid)] = c
	}
	node := make([]onion.Cipher, d.n)
	for v := range node {
		c, err := onion.NewSymmetricCipher(nodeKeys[v])
		if err != nil {
			return fmt.Errorf("groups: install node %d: %w", v, err)
		}
		node[v] = c
	}
	d.group, d.groupOpen = group, group
	d.node, d.nodeOpen = node, node
	return nil
}
