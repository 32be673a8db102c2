package oram

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
)

// Checkpoint/restore: embedding-table training runs for days and
// checkpoints regularly; losing the ORAM client state (position map +
// stash) strands every block in the tree. SaveState/LoadState serialise
// the trusted client state; the store implementations serialise the
// server-side tree. Both formats are versioned little-endian binary.
//
// The random source is deliberately not serialised: a restored client must
// be given a fresh (re-seeded) RNG, which affects only *which* uniform
// leaves future remaps draw — obliviousness is unaffected.

const snapshotMagic = 0x4C414F52414D5631 // "LAORAMV1"

// Snapshotter is the store-side checkpoint contract: MetaStore and
// PayloadStore implement it natively, CountingStore forwards to whatever it
// wraps. The remote server exposes it per shard so a node can persist (or
// roll back) its trees, and the chaos failover path restores every node
// from the same checkpoint so client position map and server trees stay in
// lockstep (DESIGN.md "Failure model").
type Snapshotter interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

var (
	_ Snapshotter = (*MetaStore)(nil)
	_ Snapshotter = (*PayloadStore)(nil)
	_ Snapshotter = (*CountingStore)(nil)
)

// snapshotterOf returns the Snapshotter a wrapper forwards to.
func snapshotterOf(st Store) (Snapshotter, error) {
	s, ok := st.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("oram: wrapped %T does not support snapshots", st)
	}
	return s, nil
}

// Save forwards to the wrapped store's Snapshotter. Counters are traffic
// telemetry, not tree state — they are deliberately not serialised, the
// same way the client's RNG position is serialised separately from its
// position map.
func (cs *CountingStore) Save(w io.Writer) error {
	s, err := snapshotterOf(cs.inner.Store)
	if err != nil {
		return err
	}
	return s.Save(w)
}

// Load forwards to the wrapped store's Snapshotter.
func (cs *CountingStore) Load(r io.Reader) error {
	s, err := snapshotterOf(cs.inner.Store)
	if err != nil {
		return err
	}
	return s.Load(r)
}

// SaveState writes the client's trusted state (position map and stash).
func (c *Client) SaveState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	if err := put(snapshotMagic); err != nil {
		return err
	}
	if err := put(c.pos.Len()); err != nil {
		return err
	}
	for i := uint64(0); i < c.pos.Len(); i++ {
		if err := put(uint64(c.pos.leaves[i])); err != nil {
			return err
		}
	}
	// Stash: count, then (id, leaf, payloadLen, payload) sorted by ID
	// for deterministic output.
	ids := c.stash.IDs()
	slices.Sort(ids)
	if err := put(uint64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		leaf, _ := c.stash.Leaf(id)
		payload, _ := c.stash.Payload(id)
		if err := put(uint64(id)); err != nil {
			return err
		}
		if err := put(uint64(leaf)); err != nil {
			return err
		}
		if err := put(uint64(len(payload))); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadState restores state saved by SaveState into this client. The client
// must have been built with the same Blocks count.
func (c *Client) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	var u64 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	magic, err := get()
	if err != nil {
		return fmt.Errorf("oram: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("oram: bad snapshot magic %#x", magic)
	}
	n, err := get()
	if err != nil {
		return err
	}
	if n != c.pos.Len() {
		return fmt.Errorf("oram: snapshot covers %d blocks, client configured for %d", n, c.pos.Len())
	}
	for i := uint64(0); i < n; i++ {
		v, err := get()
		if err != nil {
			return err
		}
		c.pos.leaves[i] = uint32(v)
	}
	// Rebuild the stash.
	c.stash = NewStash()
	count, err := get()
	if err != nil {
		return err
	}
	const maxStash = 1 << 24
	if count > maxStash {
		return fmt.Errorf("oram: snapshot stash of %d entries implausible", count)
	}
	for i := uint64(0); i < count; i++ {
		id, err := get()
		if err != nil {
			return err
		}
		leaf, err := get()
		if err != nil {
			return err
		}
		plen, err := get()
		if err != nil {
			return err
		}
		if plen > 1<<24 {
			return fmt.Errorf("oram: snapshot payload of %d bytes implausible", plen)
		}
		var payload []byte
		if plen > 0 {
			payload = make([]byte, plen)
			if _, err := io.ReadFull(br, payload); err != nil {
				return err
			}
		}
		if err := c.stash.Put(BlockID(id), Leaf(leaf), payload); err != nil {
			return err
		}
	}
	return nil
}

// Save serialises the metadata-only server tree: a header, then the slot
// records as kept.
func (st *MetaStore) Save(w io.Writer) error {
	defer runtime.KeepAlive(st)
	return writeSnapshot(w, []uint64{snapshotMagic + 1, uint64(st.geom.TotalSlots())}, st.meta)
}

// Load restores a MetaStore snapshot; the geometry must match. The live
// bounds are not in the snapshot: they are rebuilt from the records.
func (st *MetaStore) Load(r io.Reader) error {
	defer runtime.KeepAlive(st)
	br := bufio.NewReader(r)
	if err := readStoreHeader(br, snapshotMagic+1, st.geom); err != nil {
		return err
	}
	_, err := io.ReadFull(br, st.meta)
	st.reboundAll()
	return err
}

// Save serialises the payload-bearing server tree (including sealed
// payload bytes exactly as stored, so a sealed store restores sealed): a
// header, the slot records, then the arena.
func (st *PayloadStore) Save(w io.Writer) error {
	defer runtime.KeepAlive(st)
	return writeSnapshot(w, []uint64{snapshotMagic + 2, uint64(st.geom.TotalSlots()), uint64(st.stride)}, st.meta, st.arena)
}

// Load restores a PayloadStore snapshot; geometry and stride (and hence
// sealing configuration) must match. The live bounds are rebuilt from the
// records, as MetaStore.Load does.
func (st *PayloadStore) Load(r io.Reader) error {
	defer runtime.KeepAlive(st)
	br := bufio.NewReader(r)
	if err := readStoreHeader(br, snapshotMagic+2, st.geom); err != nil {
		return err
	}
	stride, err := readU64(br)
	if err != nil {
		return err
	}
	if stride != uint64(st.stride) {
		return fmt.Errorf("oram: store snapshot stride %d != %d (sealing mismatch?)", stride, st.stride)
	}
	_, err = io.ReadFull(br, st.meta)
	st.reboundAll()
	if err != nil {
		return err
	}
	_, err = io.ReadFull(br, st.arena)
	return err
}

// writeSnapshot writes a store snapshot: little-endian header words, then
// each run of bytes as it is.
func writeSnapshot(w io.Writer, header []uint64, runs ...[]byte) error {
	bw := bufio.NewWriter(w)
	var u64 [8]byte
	for _, v := range header {
		binary.LittleEndian.PutUint64(u64[:], v)
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	for _, run := range runs {
		if _, err := bw.Write(run); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readU64(r io.Reader) (uint64, error) {
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(u64[:]), nil
}

// readStoreHeader checks a store snapshot's magic and slot count against g.
func readStoreHeader(r io.Reader, magic uint64, g *Geometry) error {
	got, err := readU64(r)
	if err != nil {
		return err
	}
	if got != magic {
		return fmt.Errorf("oram: bad store snapshot magic %#x", got)
	}
	n, err := readU64(r)
	if err != nil {
		return err
	}
	if n != uint64(g.TotalSlots()) {
		return fmt.Errorf("oram: store snapshot has %d slots, geometry needs %d", n, g.TotalSlots())
	}
	return nil
}
