// Package integrity adds authenticated storage to the ORAM: a Merkle tree
// mirroring the bucket tree, anchored at a trusted root digest. The
// paper's threat model (§III) assumes an honest-but-curious server — it
// observes addresses but returns data faithfully; this layer extends the
// reproduction to an actively malicious server that may tamper with or
// roll back bucket contents, the standard hardening for PathORAM
// deployments.
//
// Construction: digest(node) = SHA-256(level ‖ index ‖ bucket slots ‖
// digest(left) ‖ digest(right)). The digests are a client-resident slice,
// one 32-byte digest per bucket in heap order (TotalBuckets() of them), so
// the layer costs O(buckets) trusted memory; no digest crosses the wire.
// Every bucket read still verifies the authentication path to the root as
// if the digests were untrusted; every write recomputes digests up to the
// root and refreshes the trusted copy. Collision resistance makes a
// consistent forgery impossible, and holding the root client-side defeats
// replay of stale states.
package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/oram"
)

// Digest is a SHA-256 output.
type Digest = [sha256.Size]byte

// VerifiedStore wraps an oram.Store with Merkle authentication. It
// implements oram.Store, so every client in this repository can run over
// it unchanged.
type VerifiedStore struct {
	inner oram.Store
	geom  *oram.Geometry
	// digests holds one digest per bucket, heap-indexed
	// (2^level - 1 + node), in client memory.
	digests []Digest
	// root is the trusted client-side copy.
	root Digest
	// buf is a scratch bucket for the parent reads of verifyUp/updateUp.
	buf []oram.Slot

	verified uint64
	failures uint64
}

var _ oram.Store = (*VerifiedStore)(nil)

// NewVerifiedStore wraps inner, hashing its current contents as the
// initial authenticated state (wrap before or right after bulk load).
func NewVerifiedStore(inner oram.Store) (*VerifiedStore, error) {
	g := inner.Geometry()
	vs := &VerifiedStore{
		inner:   inner,
		geom:    g,
		digests: make([]Digest, g.TotalBuckets()),
		buf:     make([]oram.Slot, maxBucket(g)),
	}
	if err := vs.rehashAll(); err != nil {
		return nil, err
	}
	return vs, nil
}

func maxBucket(g *oram.Geometry) int {
	m := 0
	for lvl := 0; lvl < g.Levels(); lvl++ {
		if z := g.BucketSize(lvl); z > m {
			m = z
		}
	}
	return m
}

// Verified returns how many bucket reads passed authentication.
func (vs *VerifiedStore) Verified() uint64 { return vs.verified }

// Failures returns how many reads failed authentication.
func (vs *VerifiedStore) Failures() uint64 { return vs.failures }

func (vs *VerifiedStore) bucketNo(level int, node uint64) int64 {
	return int64((uint64(1)<<uint(level))-1) + int64(node)
}

// hashBucket computes digest(node) from slot contents and child digests.
func (vs *VerifiedStore) hashBucket(level int, node uint64, slots []oram.Slot) Digest {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(level))
	binary.BigEndian.PutUint64(hdr[4:], node)
	h.Write(hdr[:])
	var meta [20]byte
	for i := range slots {
		binary.BigEndian.PutUint64(meta[0:], uint64(slots[i].ID))
		binary.BigEndian.PutUint64(meta[8:], uint64(slots[i].Leaf))
		binary.BigEndian.PutUint32(meta[16:], uint32(len(slots[i].Payload)))
		h.Write(meta[:])
		h.Write(slots[i].Payload)
	}
	if level < vs.geom.Levels()-1 {
		l := vs.digests[vs.bucketNo(level+1, 2*node)]
		r := vs.digests[vs.bucketNo(level+1, 2*node+1)]
		h.Write(l[:])
		h.Write(r[:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

// rehashAll builds the digest tree bottom-up from the inner store.
func (vs *VerifiedStore) rehashAll() error {
	for lvl := vs.geom.Levels() - 1; lvl >= 0; lvl-- {
		z := vs.geom.BucketSize(lvl)
		buf := make([]oram.Slot, z)
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := vs.inner.ReadBucket(lvl, node, buf); err != nil {
				return err
			}
			vs.digests[vs.bucketNo(lvl, node)] = vs.hashBucket(lvl, node, buf)
		}
	}
	vs.root = vs.digests[0]
	return nil
}

// verifyUp recomputes the path from (level,node) to the root using the
// freshly computed own digest and stored ancestor/sibling digests, and
// compares against the trusted root. got is the recomputed digest of
// (level,node) itself.
func (vs *VerifiedStore) verifyUp(level int, node uint64, got Digest) error {
	if got != vs.digests[vs.bucketNo(level, node)] {
		vs.failures++
		return fmt.Errorf("integrity: bucket (%d,%d) digest mismatch", level, node)
	}
	// The stored digest matches the content we read; now confirm the
	// stored digest chain itself is anchored at the trusted root (else
	// the server could have swapped a consistent stale subtree).
	cur := got
	for lvl := level; lvl > 0; lvl-- {
		parentNode := node / 2
		sibling := node ^ 1
		sib := vs.digests[vs.bucketNo(lvl, sibling)]
		// Recompute the parent from its stored bucket contents + the
		// two child digests (one of which we just recomputed).
		z := vs.geom.BucketSize(lvl - 1)
		buf := vs.buf[:z]
		if err := vs.inner.ReadBucket(lvl-1, parentNode, buf); err != nil {
			return err
		}
		var l, r Digest
		if node%2 == 0 {
			l, r = cur, sib
		} else {
			l, r = sib, cur
		}
		parent := vs.hashParent(lvl-1, parentNode, buf, l, r)
		if parent != vs.digests[vs.bucketNo(lvl-1, parentNode)] {
			vs.failures++
			return fmt.Errorf("integrity: ancestor (%d,%d) digest mismatch", lvl-1, parentNode)
		}
		cur = parent
		node = parentNode
	}
	if cur != vs.root {
		vs.failures++
		return fmt.Errorf("integrity: root digest mismatch (stale or forged state)")
	}
	vs.verified++
	return nil
}

// hashParent is hashBucket with explicit child digests (avoiding a
// re-read of the digest array mid-verification).
func (vs *VerifiedStore) hashParent(level int, node uint64, slots []oram.Slot, l, r Digest) Digest {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(level))
	binary.BigEndian.PutUint64(hdr[4:], node)
	h.Write(hdr[:])
	var meta [20]byte
	for i := range slots {
		binary.BigEndian.PutUint64(meta[0:], uint64(slots[i].ID))
		binary.BigEndian.PutUint64(meta[8:], uint64(slots[i].Leaf))
		binary.BigEndian.PutUint32(meta[16:], uint32(len(slots[i].Payload)))
		h.Write(meta[:])
		h.Write(slots[i].Payload)
	}
	if level < vs.geom.Levels()-1 {
		h.Write(l[:])
		h.Write(r[:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

// updateUp refreshes digests from (level,node) to the root after a write.
func (vs *VerifiedStore) updateUp(level int, node uint64, slots []oram.Slot) error {
	vs.digests[vs.bucketNo(level, node)] = vs.hashBucket(level, node, slots)
	for lvl := level; lvl > 0; lvl-- {
		parentNode := node / 2
		z := vs.geom.BucketSize(lvl - 1)
		buf := vs.buf[:z]
		if err := vs.inner.ReadBucket(lvl-1, parentNode, buf); err != nil {
			return err
		}
		vs.digests[vs.bucketNo(lvl-1, parentNode)] = vs.hashBucket(lvl-1, parentNode, buf)
		node = parentNode
	}
	vs.root = vs.digests[0]
	return nil
}

// Geometry implements oram.Store.
func (vs *VerifiedStore) Geometry() *oram.Geometry { return vs.geom }

// ReadBucket implements oram.Store with authentication.
func (vs *VerifiedStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	if err := vs.inner.ReadBucket(level, node, dst); err != nil {
		return err
	}
	return vs.verifyUp(level, node, vs.hashBucket(level, node, dst))
}

// WriteBucket implements oram.Store, refreshing the digest chain.
func (vs *VerifiedStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	if err := vs.inner.WriteBucket(level, node, src); err != nil {
		return err
	}
	return vs.updateUp(level, node, src)
}

// ReadSlot implements oram.Store; the whole bucket is verified.
func (vs *VerifiedStore) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	return oram.ReadSlotVia(vs, level, node, slot, dst)
}

// WriteSlot implements oram.Store; the digest chain is refreshed.
func (vs *VerifiedStore) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	return oram.WriteSlotVia(vs, level, node, slot, src)
}
