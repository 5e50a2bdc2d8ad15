package groups

import (
	"errors"
	"fmt"

	"repro/internal/contact"
	"repro/internal/onion"
)

// MemberCipher returns the layer cipher of group id as held by node v:
// it enforces group membership, so non-members are denied. This is the
// accessor protocol runtimes should use; GroupCipher is the omniscient
// view for tests and the source (which may address any group).
func (d *Directory) MemberCipher(v contact.NodeID, id onion.GroupID) (onion.Cipher, error) {
	if v < 0 || int(v) >= d.n {
		return nil, fmt.Errorf("groups: node %d out of range", v)
	}
	if !d.Contains(id, v) {
		return nil, fmt.Errorf("groups: node %d is not a member of group %d", v, id)
	}
	if d.groupOpen == nil {
		return nil, errors.New("groups: keys not provisioned")
	}
	c, ok := d.groupOpen[id]
	if !ok {
		return nil, fmt.Errorf("groups: no cipher for group %d", id)
	}
	return c, nil
}

// OwnCipher returns node v's OPEN-side destination-layer cipher (the
// private key in hybrid mode).
func (d *Directory) OwnCipher(v contact.NodeID) (onion.Cipher, error) {
	if d.nodeOpen == nil {
		return nil, errors.New("groups: keys not provisioned")
	}
	if v < 0 || int(v) >= d.n {
		return nil, fmt.Errorf("groups: node %d out of range", v)
	}
	return d.nodeOpen[v], nil
}
