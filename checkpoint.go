package laoram

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Checkpoint/restore: the failover half of the multi-node story. One
// ORAM.SaveState captures everything needed to resume — all trusted client
// state (position maps, stashes, RNG positions, access stats) plus a
// snapshot of every shard's server tree, fetched through the checkpoint
// coordinator RPC (opSnapshot) for remote instances — so the client state
// and every node's trees commit as one epoch-stamped set instead of by
// convention. Restoring rewinds the whole system to that boundary, after
// which execution is byte-identical to a run that never failed — DESIGN.md
// invariants #11 and #12, enforced by the chaos suite.
//
// Layout (little-endian): magic u64 · flags u64 (bit 0: recorded by a
// local instance) · epoch u64 · engLen u64 · engine state blob · one
// treeLen u64 + tree snapshot per shard. Every section is length-prefixed
// and parsed from its own in-memory slice, so LoadState consumes exactly
// the bytes SaveState wrote regardless of the sections' internal
// buffering.
//
// The envelope carries no node count: shard tree sections are addressed by
// shard index only, and LoadState restores each through the *current*
// instance's placement. A checkpoint recorded under N nodes therefore
// restores onto M nodes (N → N±1 re-placement) with no translation step —
// shard i's snapshot simply travels to whichever node now serves shard i.

// checkpointMagic versions the public checkpoint envelope ("LAORCKP2").
// Version 2 added the epoch stamp and made shard tree sections
// unconditional (v1 embedded trees only for local instances).
const checkpointMagic = 0x4C414F52434B5032

// maxCheckpointSection bounds one length-prefixed section (engine state or
// a single shard tree) so a corrupted length can't trigger an absurd
// allocation before the magic check inside the section fails.
const maxCheckpointSection = 1 << 38

// checkpointable reports whether this instance supports SaveState /
// LoadState, with a descriptive error when not.
func (o *ORAM) checkpointable() error {
	if o.opts.Verify {
		return fmt.Errorf("laoram: checkpointing does not support Options.Verify: the bucket digests that authenticate server storage are trusted client state outside the snapshot format, so a restored instance could not check a bucket")
	}
	return nil
}

// SaveState writes a checkpoint of the whole system: every shard's
// position map, stash, counted RNG position, access counters and stash
// peak, plus every shard's server tree. Local instances snapshot their
// in-process stores; remote instances fan one opSnapshot per shard out to
// the serving nodes, each taken under that shard's server-side lock, so
// the client state and all node trees commit as one set stamped with the
// checkpoint epoch (a counter that increments on every SaveState and is
// restored by LoadState). The caller must not run sessions concurrently
// with SaveState — checkpoints are taken at window boundaries, where the
// trainer is quiescent.
//
// A restored instance continues byte-identically: leaf choices resume
// mid-RNG-stream, tree bytes and stats match a run that never stopped
// (unsealed stores; sealed local stores restore content-identically, since
// a fresh sealer draws a fresh random nonce field for post-restore writes).
//
// Not supported — and rejected with an error — under Options.Verify (the
// trusted bucket digests are not in the snapshot).
func (o *ORAM) SaveState(w io.Writer) error {
	if err := o.checkpointable(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	var flags uint64
	if !o.remote() {
		flags |= 1
	}
	o.ckEpoch++
	for _, v := range []uint64{checkpointMagic, flags, o.ckEpoch} {
		if err := put(v); err != nil {
			return err
		}
	}
	var section bytes.Buffer
	writeSection := func(fill func(w io.Writer) error) error {
		section.Reset()
		if err := fill(&section); err != nil {
			return err
		}
		if err := put(uint64(section.Len())); err != nil {
			return err
		}
		_, err := bw.Write(section.Bytes())
		return err
	}
	if err := writeSection(o.eng.SaveState); err != nil {
		return err
	}
	for s := 0; s < o.eng.Shards(); s++ {
		if err := writeSection(o.eng.Sub(s).Store.Save); err != nil {
			return fmt.Errorf("laoram: shard %d tree: %w", s, err)
		}
	}
	return bw.Flush()
}

// LoadState restores a SaveState checkpoint into this instance, which must
// have been built with the same Options shape (shards, entries, seed,
// geometry, and the same local/remote split — restoring a local
// checkpoint into a remote instance or vice versa is rejected). The node
// count may differ: shard tree snapshots are re-partitioned at restore
// time through this instance's placement, so a checkpoint recorded under N
// nodes restores onto M nodes. For remote instances each shard's snapshot
// travels to its serving node as one opRestore. The instance adopts the
// checkpoint's epoch, so a recovered run's subsequent checkpoints number
// identically to an unfaulted run's. After LoadState the instance's future
// behaviour is byte-identical to the saved instance's.
func (o *ORAM) LoadState(r io.Reader) error {
	return o.loadState(r, nil)
}

// loadStateShards restores only the shards pick marks true from a
// SaveState checkpoint — client lane state and server tree both — leaving
// every other shard's live state untouched. It is the per-shard half of
// re-placement: a dead node's shards rewind to the last checkpoint (their
// trees restored through the current, typically freshly repointed,
// placement) while healthy shards keep running forward. Unlike LoadState
// the checkpoint's epoch is NOT adopted: no committed save is being
// discarded, so the save numbering keeps advancing from where it was.
func (o *ORAM) loadStateShards(r io.Reader, pick []bool) error {
	if len(pick) != o.eng.Shards() {
		return fmt.Errorf("laoram: shard selector has %d entries, instance has %d shards", len(pick), o.eng.Shards())
	}
	return o.loadState(r, pick)
}

// loadState parses a SaveState envelope; a nil pick restores every shard
// and adopts the checkpoint epoch, otherwise only the picked shards are
// restored and the epoch is left alone.
func (o *ORAM) loadState(r io.Reader, pick []bool) error {
	if err := o.checkpointable(); err != nil {
		return err
	}
	var u64 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	magic, err := get()
	if err != nil {
		return fmt.Errorf("laoram: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("laoram: bad checkpoint magic %#x", magic)
	}
	flags, err := get()
	if err != nil {
		return err
	}
	epoch, err := get()
	if err != nil {
		return fmt.Errorf("laoram: checkpoint epoch: %w", err)
	}
	if fromLocal, local := flags&1 != 0, !o.remote(); fromLocal != local {
		if local {
			return fmt.Errorf("laoram: checkpoint was taken from a remote instance; this instance is local")
		}
		return fmt.Errorf("laoram: checkpoint was taken from a local instance; this instance is remote")
	}
	readSection := func(name string) ([]byte, error) {
		n, err := get()
		if err != nil {
			return nil, fmt.Errorf("laoram: checkpoint %s length: %w", name, err)
		}
		if n > maxCheckpointSection {
			return nil, fmt.Errorf("laoram: checkpoint %s of %d bytes implausible", name, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("laoram: checkpoint %s: %w", name, err)
		}
		return b, nil
	}
	eng, err := readSection("engine state")
	if err != nil {
		return err
	}
	if pick == nil {
		err = o.eng.LoadState(bytes.NewReader(eng))
	} else {
		err = o.eng.LoadStateLanes(bytes.NewReader(eng), pick)
	}
	if err != nil {
		return err
	}
	for s := 0; s < o.eng.Shards(); s++ {
		tree, err := readSection(fmt.Sprintf("shard %d tree", s))
		if err != nil {
			return err
		}
		if pick != nil && !pick[s] {
			continue
		}
		if err := o.eng.Sub(s).Store.Load(bytes.NewReader(tree)); err != nil {
			return fmt.Errorf("laoram: shard %d tree: %w", s, err)
		}
	}
	if pick == nil {
		// The epoch is restored state like everything else: a full rollback
		// resumes the save numbering from the boundary it rolled back to. A
		// shard-subset restore discards no committed save and keeps its
		// epoch.
		o.ckEpoch = epoch
	}
	return nil
}
