//go:build linux && !race

package oram

import (
	"fmt"
	"runtime"
	"syscall"
)

// slabMapped reports that this build maps large slabs (see slab).
const slabMapped = true

// newSlab returns n zeroed bytes. From minMappedSlab up they are an anonymous
// private mapping advised MADV_HUGEPAGE — with 4 KB rows every slot is a page,
// and faulting them in one by one costs the sealed lane its throughput; the
// advice is best-effort, so a kernel without transparent huge pages only loses
// the gain. A mapping that fails is an error naming the size; it never falls
// back to the heap.
func newSlab(n int64) (*slab, error) {
	if n < minMappedSlab {
		return &slab{b: make([]byte, n)}, nil
	}
	if int64(int(n)) != n {
		return nil, fmt.Errorf("oram: %d-byte slab exceeds the address space", n)
	}
	b, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("oram: mapping a %d-byte slab: %w", n, err)
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	mappedBytes.Add(n)
	s := &slab{b: b}
	runtime.AddCleanup(s, unmapSlab, b)
	return s, nil
}

// unmapSlab releases a mapping whose *slab was collected.
func unmapSlab(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("oram: unmapping a %d-byte slab: %v", len(b), err))
	}
	mappedBytes.Add(-int64(len(b)))
}
