package groups

import (
	"testing"

	"repro/internal/onion"
	"repro/internal/rng"
)

func provisioned(t *testing.T) *Directory {
	t.Helper()
	d, err := NewPartition(20, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ProvisionKeys(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMemberCipherEnforcesMembership(t *testing.T) {
	d := provisioned(t)
	outsider := d.Members(1)[0] // member of group 1, not group 0
	if _, err := d.MemberCipher(outsider, 0); err == nil {
		t.Fatal("non-member obtained a group key")
	}
	if _, err := d.MemberCipher(99, 0); err == nil {
		t.Fatal("unknown node obtained a group key")
	}
}

func TestProvisionHybridKeysTrustSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA keygen")
	}
	d, err := NewPartition(6, 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ProvisionHybridKeys(1024); err != nil {
		t.Fatal(err)
	}
	src, dst := d.Members(0)[0], d.Members(2)[0]
	path, err := d.SelectPath(src, dst, 1, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	seal, err := d.GroupCipher(path[0])
	if err != nil {
		t.Fatal(err)
	}
	destSeal, err := d.NodeCipher(dst)
	if err != nil {
		t.Fatal(err)
	}
	data, err := onion.Build(onion.NodeID(dst),
		[]byte("public keys only at the source"),
		[]onion.Hop{{Group: path[0], Cipher: seal}}, destSeal, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The seal-side cipher (what the source holds) must NOT peel.
	if _, err := onion.Peel(data, seal); err == nil {
		t.Fatal("source's public-key cipher peeled a layer")
	}
	// A group member peels with its private key.
	member := d.Members(path[0])[0]
	open, err := d.MemberCipher(member, path[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := onion.Peel(data, open)
	if err != nil {
		t.Fatal(err)
	}
	// Destination unwraps with its private key; the seal side cannot.
	destOpen, err := d.OwnCipher(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := onion.Unwrap(p.Inner, destSeal); err == nil {
		t.Fatal("public destination key unwrapped the payload")
	}
	got, err := onion.Unwrap(p.Inner, destOpen)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "public keys only at the source" {
		t.Fatalf("payload %q", got)
	}
}

func TestProvisionHybridKeysValidation(t *testing.T) {
	d, err := NewPartition(4, 2, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ProvisionHybridKeys(512); err == nil {
		t.Fatal("accepted 512-bit keys")
	}
}
