package oram

import "fmt"

// How AccessBatch treats one key of its batch, decided before any server
// traffic.
const (
	// batchFetch: the block sits on its position-map path; that path joins
	// the fetch and the block is remapped once it is in the stash.
	batchFetch uint8 = iota
	// batchHit: the block is already in trusted memory — stashed before the
	// call, or an earlier key of the same batch. With StashHits it is served
	// without a path; without, it draws one uniform cover path and is
	// remapped, so every key still shows the server one path.
	batchHit
	// batchCreate: first write of a block that exists nowhere. It is created
	// in the stash under a fresh leaf and one uniform cover path joins the
	// fetch, exactly as Access covers a first write.
	batchCreate
)

// batchScratch is AccessBatch's reusable state: the fetch set, the per-key
// classification, and the one-key view Access runs the batch over.
type batchScratch struct {
	fetch LeafSet
	kinds []uint8
	id    [1]BlockID
	data  [1][]byte
	out   [1][]byte
}

// AccessBatch performs len(ids) accesses of one kind as a single joint
// PathORAM access — the paper's batch fetch (§IV-A: "issues read request to
// all the paths associated with the embedding entries in the upcoming …
// batch and caches them locally") applied to plain lookups, and the one
// access cycle of the client: Access is the batch of one key.
//
//  1. gather the position-map leaves of the keys into one deduplicated set;
//  2. ReadPaths the bucket union (every shared bucket moves once; one frame
//     on a BatchStore);
//  3. in batch order, remap every fetched block to a fresh uniform leaf and
//     serve the key from the stash — out[i] receives a caller-owned copy for
//     OpRead, made in out[i]'s capacity (ReadInto's contract; a nil slot
//     gets a fresh row), and data[i] is copied in for OpWrite (duplicate ids
//     apply in batch order, the last write wins);
//  4. WriteBackPaths the same union, then run background eviction once.
//
// What the server sees is the union of k independent uniform leaves, each
// revealed once and replaced before write-back — core.LAORAM.Step's argument
// (DESIGN.md "Joint lookups"). A key already in the stash, or repeated
// within the batch, costs no path with StashHits and one uniformly drawn
// cover path without; a first write costs one cover path; everything else
// costs its own path. Statistics count as core.LAORAM.Step counts:
// Accesses, StashHits and Remaps per key, PathReads and PathWrites per
// distinct leaf.
//
// An unknown op, reads of never-written blocks and out-of-range ids fail
// before any state changes or server traffic. The transient stash holds the
// real blocks of every fetched path, so callers bound len(ids); the
// post-write-back stash obeys the usual bound.
func (c *Client) AccessBatch(op Op, ids []BlockID, data, out [][]byte) error {
	switch op {
	case OpRead:
		if len(out) != len(ids) {
			return fmt.Errorf("oram: AccessBatch read got %d ids, %d result slots", len(ids), len(out))
		}
	case OpWrite:
		if len(data) != len(ids) {
			return fmt.Errorf("oram: AccessBatch write got %d ids, %d payloads", len(ids), len(data))
		}
	default:
		return fmt.Errorf("oram: unknown op %v", op)
	}
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		if uint64(id) >= c.pos.Len() {
			return fmt.Errorf("oram: block %d out of range (have %d blocks)", id, c.pos.Len())
		}
		if op == OpRead && c.pos.Get(id) == NoLeaf {
			return fmt.Errorf("oram: read of unwritten block %d", id)
		}
	}

	b := &c.batch
	b.fetch.Reset()
	b.kinds = b.kinds[:0]
	c.stats.Accesses += uint64(len(ids))
	for i, id := range ids {
		kind := batchFetch
		if c.pos.Get(id) == NoLeaf {
			kind = batchCreate
			leaf := c.RandomLeaf()
			c.pos.SetDrawn(id, leaf)
			c.stats.Remaps++
			if err := c.stash.Put(id, leaf, data[i]); err != nil {
				return err
			}
			b.fetch.Add(c.RandomLeaf())
		} else {
			hit := containsID(ids[:i], id)
			if !hit {
				var err error
				if hit, err = c.GatherLeaf(&b.fetch, id); err != nil {
					return err
				}
			}
			if hit {
				kind = batchHit
				if c.stashHits {
					c.stats.StashHits++
				} else {
					b.fetch.Add(c.RandomLeaf())
				}
			}
		}
		b.kinds = append(b.kinds, kind)
	}
	leaves := b.fetch.Leaves()

	if err := c.ReadPaths(leaves); err != nil {
		return err
	}
	c.stats.PathReads += uint64(len(leaves))

	for i, id := range ids {
		kind := b.kinds[i]
		if kind == batchCreate {
			continue // created with its payload above
		}
		if kind == batchFetch && !c.stash.Contains(id) {
			return fmt.Errorf("oram: block %d not found on its assigned path %d (tree corrupt)", id, c.pos.Get(id))
		}
		if kind == batchFetch || !c.stashHits {
			// Remap uniformly before write-back (§II-C step 4).
			leaf := c.RandomLeaf()
			c.pos.SetDrawn(id, leaf)
			c.stash.SetLeaf(id, leaf)
			c.stats.Remaps++
		}
		// Serve from trusted memory, which holds the block now. A read copies
		// out: the client's live rows must never escape to callers.
		if op == OpWrite {
			c.stash.SetPayload(id, data[i])
		} else {
			p, _ := c.stash.Payload(id)
			out[i] = copyInto(out[i], p)
		}
	}

	if err := c.WriteBackPaths(leaves); err != nil {
		return err
	}
	c.stats.PathWrites += uint64(len(leaves))
	_, err := c.MaybeEvict()
	return err
}

// containsID reports whether id is among ids — the within-batch duplicate
// probe. Batches are short (callers chunk them), so a scan beats a set.
func containsID(ids []BlockID, id BlockID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
