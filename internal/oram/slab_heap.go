//go:build !linux || race

package oram

// slabMapped reports that this build takes every slab from the heap: the race
// detector cannot see mapped memory, and other platforms keep the portable
// body (see slab).
const slabMapped = false

// newSlab returns n zeroed bytes from the heap.
func newSlab(n int64) (*slab, error) {
	return &slab{b: make([]byte, n)}, nil
}
