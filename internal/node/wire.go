package node

import (
	"encoding/hex"
	"fmt"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/onion"
)

// toBundle frames a carried onion for transfer. The recipient always
// receives exactly one ticket.
func (c *carried) toBundle() *bundle.Bundle {
	b := &bundle.Bundle{
		Expiry:    c.expiry,
		LastHop:   c.lastHop,
		Group:     -1,
		DeliverTo: -1,
		Data:      c.data,
	}
	if c.lastHop {
		b.DeliverTo = int32(c.deliverTo)
	} else {
		b.Group = int32(c.group)
	}
	raw, err := hex.DecodeString(c.id)
	if err != nil || len(raw) != len(b.ID) {
		panic(fmt.Sprintf("node: malformed message id %q", c.id))
	}
	copy(b.ID[:], raw)
	return b
}

// frame marshals a carried onion for the wire. A carried onion that
// cannot be framed is a programming error, surfaced loudly rather than
// silently dropped.
func (c *carried) frame() []byte {
	frame, err := c.toBundle().Marshal()
	if err != nil {
		panic(fmt.Sprintf("node: marshal custody of %s: %v", c.id, err))
	}
	return frame
}

// receiveFrame parses and validates an incoming wire frame into a
// custody record. Damaged frames fail here, before any state changes.
func receiveFrame(frame []byte) (*carried, error) {
	b, err := bundle.Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	c := &carried{
		id:      hex.EncodeToString(b.ID[:]),
		data:    b.Data,
		lastHop: b.LastHop,
		tickets: 1,
		expiry:  b.Expiry,
	}
	if b.LastHop {
		c.deliverTo = contact.NodeID(b.DeliverTo)
	} else {
		c.group = onion.GroupID(b.Group)
	}
	return c, nil
}
