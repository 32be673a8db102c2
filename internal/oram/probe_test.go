package oram_test

import (
	"path/filepath"
	"testing"

	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
)

// TestBatchNativeProbe: the stores that execute a bucket batch as one
// operation say so — a PayloadStore plain or sealed, with or without a
// crypto pool, the disk tier, and a CountingStore over either — and the store
// that would only unroll it bucket by bucket (a CountingStore over a
// MetaStore) says it does not, so the multipath client issues those buckets
// itself.
// SetCryptoPool still rejects a store without a *crypto.Sealer.
func TestBatchNativeProbe(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 16})
	native := func(st oram.Store) bool {
		t.Helper()
		bn, ok := st.(oram.BatchNative)
		if !ok {
			t.Fatalf("%T does not implement the BatchNative probe", st)
		}
		return bn.BatchNative()
	}

	plain, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := crypto.NewPool(4)
	defer pool.Close()
	if err := plain.SetCryptoPool(pool); err == nil {
		t.Error("SetCryptoPool accepted a store without a crypto sealer")
	}
	sealer, err := crypto.NewSealer(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := oram.NewPayloadStore(g, sealer)
	if err != nil {
		t.Fatal(err)
	}
	one := crypto.NewPool(1)
	defer one.Close()
	for _, p := range []*crypto.Pool{nil, one, pool} {
		if err := sealed.SetCryptoPool(p); err != nil {
			t.Fatal(err)
		}
		if !native(sealed) || !native(oram.NewCountingStore(sealed, nil)) {
			t.Errorf("sealed store (pool %v) does not report native batching, bare or counted", p)
		}
	}
	if !native(plain) || !native(oram.NewCountingStore(plain, nil)) {
		t.Error("plain payload store does not report native batching, bare or counted")
	}

	if native(oram.NewCountingStore(oram.NewMetaStore(g), nil)) {
		t.Error("CountingStore over a MetaStore claims native batching; it unrolls per bucket")
	}
	disk, err := diskstore.Open(diskstore.Config{Path: filepath.Join(t.TempDir(), "arena"), Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if !native(disk) || !native(oram.NewCountingStore(disk, nil)) {
		t.Error("diskstore does not report native batching, bare or counted; a union is one lock hold over its span cache")
	}
}
