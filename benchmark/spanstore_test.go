package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
)

var (
	_ oram.Store          = (*spanCore)(nil)
	_ oram.PathStore      = pathSpans{}
	_ oram.BatchStore     = batchSpans{}
	_ oram.BatchNative    = nativeFwd{}
	_ oram.PathPrefetcher = prefetchFwd{}
)

// optionalInterfaces are the extensions the engine probes a store for.
var optionalInterfaces = []struct {
	name string
	has  func(oram.Store) bool
}{
	{"PathStore", func(s oram.Store) bool { _, ok := s.(oram.PathStore); return ok }},
	{"BatchStore", func(s oram.Store) bool { _, ok := s.(oram.BatchStore); return ok }},
	{"BatchNative", func(s oram.Store) bool { _, ok := s.(oram.BatchNative); return ok }},
	{"Snapshotter", func(s oram.Store) bool { _, ok := s.(oram.Snapshotter); return ok }},
	{"PathPrefetcher", func(s oram.Store) bool { _, ok := s.(oram.PathPrefetcher); return ok }},
	{"TieredStore", func(s oram.Store) bool { _, ok := s.(oram.TieredStore); return ok }},
}

func smoke(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err == nil {
		w, err = w.scaled("smoke")
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSpanStoreExposesInnerInterfaces wraps each store the workloads run on
// and checks the wrapper answers every optional-interface probe as the store
// itself does, and forwards the calls.
func TestSpanStoreExposesInnerInterfaces(t *testing.T) {
	g, err := geometryFor(smoke(t, "train-mem"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := diskstore.Open(diskstore.Config{Path: filepath.Join(t.TempDir(), "tree.laor"), Geometry: g, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	served, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(served, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	view, err := rc.Store(0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		inner oram.Store
	}{{"PayloadStore", payload}, {"diskstore.Store", disk}, {"remote.ShardStore", view}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTracer()
			wrapped, core, err := newSpanStore(tc.inner, tr, seamClient, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range optionalInterfaces {
				if in, out := opt.has(tc.inner), opt.has(wrapped); in != out {
					t.Errorf("%s: inner implements it: %t, wrapper: %t", opt.name, in, out)
				}
			}

			// A path written through the wrapper reads back through it, and
			// both calls left a span with the path's slot count.
			path := make([][]oram.Slot, g.Levels())
			slots := 0
			for lvl := range path {
				path[lvl] = make([]oram.Slot, g.BucketSize(lvl))
				for i := range path[lvl] {
					path[lvl][i] = oram.DummySlot()
				}
				slots += len(path[lvl])
			}
			row := make([]byte, g.BlockSize())
			fillRow(row, 7, 3)
			path[g.Levels()-1][0] = oram.Slot{ID: 7, Leaf: 5, Payload: row}
			ps := wrapped.(oram.PathStore)
			if err := ps.WritePath(5, path); err != nil {
				t.Fatal(err)
			}
			back := make([][]oram.Slot, g.Levels())
			for lvl := range back {
				back[lvl] = make([]oram.Slot, g.BucketSize(lvl))
			}
			if err := ps.ReadPath(5, back); err != nil {
				t.Fatal(err)
			}
			if got := back[g.Levels()-1][0]; got.ID != 7 || !bytes.Equal(got.Payload, row) {
				t.Errorf("read back slot %d with payload %x", got.ID, got.Payload)
			}
			tot := tr.totals(seamClient, 0, tr.now())
			if tot.calls != 2 || tot.slotsWritten != int64(slots) || tot.slotsRead != int64(slots) {
				t.Errorf("spans: %d calls, %d slots written, %d read; want 2, %d, %d", tot.calls, tot.slotsWritten, tot.slotsRead, slots, slots)
			}
			if pf, ok := wrapped.(oram.PathPrefetcher); ok {
				pf.PrefetchPaths([]oram.Leaf{1})
				if core.prefetchHints.Load() != 1 {
					t.Error("prefetch hint not counted")
				}
			}
		})
	}
}

// bareStore implements Store and PathStore only: a set no workload's store
// has.
type bareStore struct{ oram.PathStore }

func (bareStore) Geometry() *oram.Geometry                    { return nil }
func (bareStore) ReadBucket(int, uint64, []oram.Slot) error   { return nil }
func (bareStore) WriteBucket(int, uint64, []oram.Slot) error  { return nil }
func (bareStore) ReadSlot(int, uint64, int, *oram.Slot) error { return nil }
func (bareStore) WriteSlot(int, uint64, int, oram.Slot) error { return nil }

func TestSpanStoreRefusesUnknownInterfaceSet(t *testing.T) {
	if _, _, err := newSpanStore(bareStore{}, newTracer(), seamClient, 0); err == nil {
		t.Fatal("a store with an unlisted optional-interface set was wrapped")
	}
}

// TestTracedRunMatchesPublicAssembly runs the traced twin beside the public
// assembly at smoke scale: identical identity counters, every per-layer
// metric reported, outputs verified.
func TestTracedRunMatchesPublicAssembly(t *testing.T) {
	for _, name := range []string{"train-mem", "train-disk", "train-remote", "lookup-remote"} {
		t.Run(name, func(t *testing.T) {
			e := &env{tmpRoot: filepath.Join(t.TempDir(), "tmp")}
			var spans bytes.Buffer
			oc, err := e.run(context.Background(), runConfig{w: smoke(t, name), seed: 7, measure: 300 * time.Millisecond, traced: true, spans: &spans})
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 {
				t.Errorf("%d failures: %s", oc.failed, strings.Join(oc.notes, "\n"))
			}
			for _, d := range perLayer {
				if _, ok := oc.metrics[d.name]; !ok {
					t.Errorf("metric %s not reported", d.name)
				}
			}
			if oc.metrics["oram.store_calls"] == 0 || oc.metrics["trace.spans"] == 0 {
				t.Errorf("no spans at the client seam: %v calls, %v spans", oc.metrics["oram.store_calls"], oc.metrics["trace.spans"])
			}
			if lines := bytes.Count(spans.Bytes(), []byte("\n")); float64(lines) != oc.metrics["trace.spans"] {
				t.Errorf("wrote %d spans, counted %v", lines, oc.metrics["trace.spans"])
			}
			if strings.HasSuffix(name, "-remote") && !bytes.Contains(spans.Bytes(), []byte(`"seam":"server"`)) {
				t.Error("no server-seam spans")
			}
		})
	}
}
