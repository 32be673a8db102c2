package diskstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Save/Load speak oram.PayloadStore's exact snapshot format (magic
// "LAORAMV1"+2, slot metadata, then the raw payload arena in linear slot
// order), so checkpoints written by an in-memory store restore into a
// disk-backed one and vice versa — laoramserve's LAORCKF1 files are
// backend-agnostic, and independent of the arena's record order: linear
// slot order is bucket order, which both passes walk, locating each record.

// snapshotBody copies bucket (level, node)'s CRC-verified body into rec:
// from the cached span when resident, from its image in the pending batch
// when it waits there (the client — the only mutator of body bytes — is
// blocked inside Save), else from the span's slot.
func (st *Store) snapshotBody(level int, node uint64, rec []byte) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ioErr != nil {
		return nil, st.ioErr
	}
	l := st.locate(level, node)
	at, n := l.recOff()
	rec = rec[:n]
	sp := st.cache[l.key()]
	if sp == nil {
		if i := l.t.pending(l.root); i >= 0 {
			sp = l.t.pend[i]
		}
	}
	var err error
	if sp != nil {
		var body []byte
		if body, err = st.bodyLocked(sp, l.idx, false); err == nil {
			copy(rec, body)
		}
	} else if _, err = st.f.ReadAt(rec, at); err == nil {
		err = verifyRecord(rec, bucketKey(level, node))
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
	}
	return rec[:n-crcLen], nil
}

// Save implements oram.Snapshotter, emitting PayloadStore's byte format.
func (st *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	if err := put(snapshotMagicPayload); err != nil {
		return err
	}
	if err := put(uint64(st.geom.TotalSlots())); err != nil {
		return err
	}
	if err := put(uint64(st.stride)); err != nil {
		return err
	}
	scratch := make([]byte, len(st.rec))
	// Pass 1: slot metadata in linear order; pass 2: the payload arena.
	for pass := 0; pass < 2; pass++ {
		for lvl := 0; lvl < st.geom.Levels(); lvl++ {
			z := st.geom.BucketSize(lvl)
			for node := uint64(0); node < uint64(1)<<uint(lvl); node++ {
				body, err := st.snapshotBody(lvl, node, scratch)
				if err != nil {
					return err
				}
				for k := 0; k < z; k++ {
					id, leaf, pay := slotAt(body, k, st.stride)
					if pass == 0 {
						if err := put(id); err != nil {
							return err
						}
						if err := put(leaf); err != nil {
							return err
						}
					} else if _, err := bw.Write(pay); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}

// Load implements oram.Snapshotter, restoring a PayloadStore-format
// snapshot by rewriting every record: header goes down dirty first, the
// cache and the pending batches (unwritten dirt — all obsolete) are
// dropped, every table goes back to the identity, each level's records go
// down one (span, level) run — 2^j adjacent records — per positioned write,
// then the table, and the arena is fsynced clean under a new epoch.
// A crash anywhere inside leaves the dirty header in place, so the next
// Open refuses the blend.
func (st *Store) Load(r io.Reader) error {
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
		return err
	}
	if magic != snapshotMagicPayload {
		return fmt.Errorf("diskstore: bad store snapshot magic %#x", magic)
	}
	n, err := get()
	if err != nil {
		return err
	}
	if n != uint64(st.geom.TotalSlots()) {
		return fmt.Errorf("diskstore: store snapshot has %d slots, geometry needs %d", n, st.geom.TotalSlots())
	}
	stride, err := get()
	if err != nil {
		return err
	}
	if stride != uint64(st.stride) {
		return fmt.Errorf("diskstore: store snapshot stride %d != %d (sealing mismatch?)", stride, st.stride)
	}
	ids := make([]uint64, n)
	leaves := make([]uint64, n)
	for i := range ids {
		if ids[i], err = get(); err != nil {
			return err
		}
		if leaves[i], err = get(); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ioErr = nil // every record is about to be rewritten; prior write-back errors are moot
	if err := st.beginWriteLocked(); err != nil {
		return err
	}
	// Every cached span — dirty or not — is superseded by the snapshot.
	clear(st.cache)
	for i := range st.tiers {
		st.tiers[i].reset()
		st.tiers[i].identity()
	}
	st.used = 0
	st.pfBytes = 0
	st.pfKey = noPrefetch
	st.pfWake.Signal()
	slot := 0
	for lvl := 0; lvl < st.geom.Levels(); lvl++ {
		z := st.geom.BucketSize(lvl)
		l := st.locate(lvl, 0)
		_, n := l.recOff()
		run := make([]byte, n<<uint(lvl-l.t.lo))
		for node := uint64(0); node < uint64(1)<<uint(lvl); node += uint64(len(run) / n) {
			key := bucketKey(lvl, node)
			for rec := run; len(rec) > 0; rec, key = rec[n:], key+1 {
				for k := 0; k < z; k++ {
					off := k * (slotMeta + st.stride)
					binary.LittleEndian.PutUint64(rec[off:], ids[slot])
					binary.LittleEndian.PutUint64(rec[off+8:], leaves[slot])
					if _, err := io.ReadFull(br, rec[off+slotMeta:off+slotMeta+st.stride]); err != nil {
						return fmt.Errorf("diskstore: snapshot payload arena: %w", err)
					}
					slot++
				}
				stampRecord(rec[:n], key)
			}
			at, _ := st.locate(lvl, node).recOff()
			if _, err := st.f.WriteAt(run, at); err != nil {
				return fmt.Errorf("diskstore: restore bucket: %w", err)
			}
		}
	}
	if err := st.writeTable(st.epoch + 1); err != nil {
		return err
	}
	return st.markClean(st.epoch + 1)
}
