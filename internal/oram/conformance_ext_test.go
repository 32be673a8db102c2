package oram_test

import (
	"path/filepath"
	"testing"

	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
)

// The conformance rows for the stores that live in packages which import
// oram: constructors handed to TestPathStoreFastPathEquivalence's table.
func init() {
	payload := func(t *testing.T, g *oram.Geometry) *oram.PayloadStore {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	// A budget of two paths of spans (the floor diskstore clamps to): bucket
	// sets below are read back through evictions and disk reads.
	disk := func(t *testing.T, g *oram.Geometry) oram.Store {
		ds, err := diskstore.Open(diskstore.Config{Path: filepath.Join(t.TempDir(), "arena"), Geometry: g, MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	shardStore := func(t *testing.T, g *oram.Geometry) oram.Store {
		srv, err := remote.NewSharded([]oram.Store{payload(t, g)}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := remote.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		st, err := cl.Store(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	oram.ConformanceShapes = append(oram.ConformanceShapes,
		oram.StoreShape{Name: "diskstore", Native: true, Atomic: true, Payloads: true, Open: disk},
		oram.StoreShape{Name: "remote.ShardStore", Native: true, Atomic: true, Payloads: true, Open: shardStore},
		oram.TreetopShape("diskstore", disk, true, false),
		oram.TreetopShape("remote.ShardStore", shardStore, true, false),
		oram.TreetopShape("remote.ShardStore", shardStore, true, true),
	)
}
