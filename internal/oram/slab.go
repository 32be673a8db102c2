package oram

import (
	"encoding/binary"
	"sync/atomic"
)

// A slab is the package's one allocator for table-sized, pointer-free memory:
// the in-memory stores' slot records and payload arena. It exists so the tree
// does not live on the Go heap. A heap-resident tree sets the collector's
// pace — with GOGC=100 garbage may grow as large as the table before a cycle
// runs, so the process costs about twice its tree — while the trainer's own
// working set is a few tens of MB.
//
// Two build-tagged bodies provide newSlab. Under linux && !race a slab of at
// least 1 MiB is an anonymous private mapping advised MADV_HUGEPAGE, unmapped
// by a cleanup attached to the *slab once it is unreachable (slab_mmap.go).
// Smaller slabs, race builds (the race detector cannot see mapped memory) and
// every other platform get the bytes from make (slab_heap.go). Code above
// newSlab is identical either way.
//
// The aliasing rule: no slice of s.b may outlive every reference to s. The
// stores keep their views of a slab beside the *slab in the same struct, hand
// out only copies (payloads are opened into the caller's buffers, Save writes
// through an io.Writer, which must not retain them), and end every method
// that touches a view with runtime.KeepAlive on the store, so the mapping
// cannot be released in the middle of a call whose caller dropped the store.
type slab struct{ b []byte }

// minMappedSlab is the smallest slab a mapping build maps: below it the bytes
// come from the heap, so a test building thousands of toy trees costs neither
// a mapping each nor three system calls.
const minMappedSlab = 1 << 20

// mappedBytes counts the bytes currently mapped by slabs; tests watch it
// return to its baseline once the stores holding them are collected.
var mappedBytes atomic.Int64

// recordSize is the bytes of one slot's metadata record: its block ID and its
// leaf as little-endian uint64s. It is the layout both in-memory stores keep
// and the one their snapshots carry, so Save and Load move records as one run.
const recordSize = 16

// records is a table of slot records in slab memory.
type records []byte

func (r records) at(i int64) *[recordSize]byte {
	o := i * recordSize
	// The full slice expression fixes the capacity at recordSize, which
	// spares the conversion its length check and the slice its pointer mask.
	return (*[recordSize]byte)(r[o : o+recordSize : o+recordSize])
}

// get returns slot i's block ID and leaf.
func (r records) get(i int64) (BlockID, Leaf) {
	p := r.at(i)
	return BlockID(binary.LittleEndian.Uint64(p[:8])), Leaf(binary.LittleEndian.Uint64(p[8:]))
}

// set overwrites slot i's record.
func (r records) set(i int64, id BlockID, leaf Leaf) {
	p := r.at(i)
	binary.LittleEndian.PutUint64(p[:8], uint64(id))
	binary.LittleEndian.PutUint64(p[8:], uint64(leaf))
}

// clearAll makes every record a dummy with leaf 0.
func (r records) clearAll() {
	for i := range int64(len(r) / recordSize) {
		r.set(i, DummyID, 0)
	}
}
