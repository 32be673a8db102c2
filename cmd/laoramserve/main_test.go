package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
)

func testGeometry(t *testing.T) *oram.Geometry {
	t.Helper()
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 4, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testServer(t *testing.T, shards int) (*remote.Server, []oram.Store) {
	t.Helper()
	g := testGeometry(t)
	stores := make([]oram.Store, shards)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ps
	}
	srv, err := remote.NewSharded(stores, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, stores
}

// markStore writes a recognisable bucket into the store's root.
func markStore(t *testing.T, st oram.Store, tag byte) {
	t.Helper()
	slots := make([]oram.Slot, st.Geometry().BucketSize(0))
	for i := range slots {
		slots[i].ID = oram.BlockID(100 + i)
		slots[i].Leaf = 1
		slots[i].Payload = make([]byte, 16)
		slots[i].Payload[0] = tag
	}
	if err := st.WriteBucket(0, 0, slots); err != nil {
		t.Fatal(err)
	}
}

func readMark(t *testing.T, st oram.Store, tag byte) byte {
	t.Helper()
	slots := make([]oram.Slot, st.Geometry().BucketSize(0))
	if err := st.ReadBucket(0, 0, slots); err != nil {
		t.Fatal(err)
	}
	if len(slots[0].Payload) == 0 {
		return 0
	}
	return slots[0].Payload[0]
}

// TestCheckpointFilesRoundTrip: saveCheckpoints writes one epoch-stamped
// shard-N.ck per shard; restoreCheckpoints into a fresh server reproduces
// the tree content and reports the set's epoch. An empty directory restores
// nothing; a torn set (file missing) is rejected, not partially applied.
func TestCheckpointFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src, srcStores := testServer(t, 2)
	markStore(t, srcStores[0], 0xA1)
	markStore(t, srcStores[1], 0xB2)

	// Empty directory: nothing to restore, epoch starts at zero.
	empty, _ := testServer(t, 2)
	if n, epoch, err := restoreCheckpoints(dir, empty); err != nil || n != 0 || epoch != 0 {
		t.Fatalf("empty dir restore = (%d, %d, %v), want (0, 0, nil)", n, epoch, err)
	}

	if err := saveCheckpoints(dir, src, 7); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if _, err := os.Stat(checkpointPath(dir, s)); err != nil {
			t.Fatalf("shard %d checkpoint missing: %v", s, err)
		}
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(ents) != 0 {
		t.Fatalf("temp files left behind: %v", ents)
	}

	dst, dstStores := testServer(t, 2)
	n, epoch, err := restoreCheckpoints(dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || epoch != 7 {
		t.Fatalf("restored (%d shards, epoch %d), want (2, 7)", n, epoch)
	}
	if got := readMark(t, dstStores[0], 0xA1); got != 0xA1 {
		t.Errorf("shard 0 restored mark %#x, want 0xa1", got)
	}
	if got := readMark(t, dstStores[1], 0xB2); got != 0xB2 {
		t.Errorf("shard 1 restored mark %#x, want 0xb2", got)
	}

	// Torn checkpoint set: shard 0's file gone, shard 1's present. The old
	// behaviour restored the survivor and left shard 0 empty — mixing a
	// checkpointed tree with a fresh one. It must be rejected outright.
	if err := os.Remove(checkpointPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	fresh, _ := testServer(t, 2)
	if n, _, err = restoreCheckpoints(dir, fresh); err == nil {
		t.Fatalf("torn set (missing shard file) accepted, restored %d", n)
	} else if !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn-set error does not say so: %v", err)
	}
}

// TestRestoreRejectsMixedEpochs: files from two different saves in one
// directory — what a crash between the set's renames leaves behind — must
// be rejected, since the shards would restore to different points in time.
func TestRestoreRejectsMixedEpochs(t *testing.T) {
	dir := t.TempDir()
	src, srcStores := testServer(t, 2)
	markStore(t, srcStores[0], 0xA1)
	markStore(t, srcStores[1], 0xB2)
	if err := saveCheckpoints(dir, src, 1); err != nil {
		t.Fatal(err)
	}
	// Keep shard 0's epoch-1 file, re-save the set at epoch 2, put the old
	// shard 0 back: the directory now spans two epochs.
	old, err := os.ReadFile(checkpointPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoints(dir, src, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath(dir, 0), old, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := testServer(t, 2)
	if _, _, err := restoreCheckpoints(dir, srv); err == nil {
		t.Fatal("mixed-epoch checkpoint set accepted")
	} else if !strings.Contains(err.Error(), "torn") {
		t.Errorf("mixed-epoch error does not say torn: %v", err)
	}
}

// TestRestoreRejectsCorruptFile: a truncated or garbage checkpoint file
// must fail the restore, not silently produce an empty tree.
func TestRestoreRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir, 0), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := testServer(t, 1)
	if _, _, err := restoreCheckpoints(dir, srv); err == nil {
		t.Fatal("corrupt checkpoint file accepted")
	}
}

// TestValidateStorageFlags pins the typed flag-validation errors: each bad
// tiered-storage combination maps to its own sentinel (errors.Is-able), and
// the sensible combinations pass.
func TestValidateStorageFlags(t *testing.T) {
	cases := []struct {
		name      string
		dataDir   string
		memBudget int64
		ckDir     string
		block     int
		sealed    bool
		want      error
	}{
		{name: "defaults", block: 128},
		{name: "disk", dataDir: "/tmp/d", block: 128},
		{name: "disk with budget", dataDir: "/tmp/d", memBudget: 1 << 20, block: 128},
		{name: "disk with checkpoint", dataDir: "/tmp/d", ckDir: "/tmp/ck", block: 128},
		{name: "budget without data dir", memBudget: 1 << 20, block: 128, want: errMemBudgetWithoutDataDir},
		{name: "negative budget", dataDir: "/tmp/d", memBudget: -1, block: 128, want: errNegativeMemBudget},
		{name: "data dir is checkpoint dir", dataDir: "/tmp/d", ckDir: "/tmp/d", block: 128, want: errDataDirIsCheckpointDir},
		{name: "data dir is checkpoint dir, unclean path", dataDir: "/tmp/x/../d", ckDir: "/tmp/d/.", block: 128, want: errDataDirIsCheckpointDir},
		{name: "metadata-only on disk", dataDir: "/tmp/d", block: 0, want: errDataDirMetadataOnly},
		{name: "sealed on disk", dataDir: "/tmp/d", block: 128, sealed: true, want: errDataDirSealed},
		{name: "sealed with checkpoint", ckDir: "/tmp/ck", block: 128, sealed: true, want: errCheckpointSealed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateStorageFlags(tc.dataDir, tc.memBudget, tc.ckDir, tc.block, tc.sealed)
			if !errors.Is(err, tc.want) {
				t.Fatalf("validateStorageFlags(%q, %d, %q, %d, %v) = %v, want %v",
					tc.dataDir, tc.memBudget, tc.ckDir, tc.block, tc.sealed, err, tc.want)
			}
		})
	}
}

// TestValidateAdmissionFlags pins the typed admission flag-validation
// errors: each nonsensical limit combination maps to its own sentinel
// (errors.Is-able), and the sensible combinations pass.
func TestValidateAdmissionFlags(t *testing.T) {
	cases := []struct {
		name    string
		limits  remote.Limits
		workers int
		want    error
	}{
		{name: "defaults (admission off)"},
		{name: "inflight only", limits: remote.Limits{MaxInflight: 64}},
		{name: "rate only", limits: remote.Limits{PerConnRate: 100}},
		{name: "rate with burst", limits: remote.Limits{PerConnRate: 100, PerConnBurst: 10}},
		{name: "fair only", limits: remote.Limits{Fair: true}},
		{name: "everything on", limits: remote.Limits{MaxInflight: 64, PerConnRate: 50, PerConnBurst: 10, Fair: true}, workers: 4},
		{name: "burst fits budget exactly", limits: remote.Limits{MaxInflight: 10, PerConnRate: 100, PerConnBurst: 10}},
		{name: "negative inflight", limits: remote.Limits{MaxInflight: -1}, want: errNegativeMaxInflight},
		{name: "negative rate", limits: remote.Limits{PerConnRate: -5}, want: errNegativePerConnRate},
		{name: "negative burst", limits: remote.Limits{PerConnRate: 10, PerConnBurst: -1}, want: errNegativePerConnBurst},
		{name: "burst without rate", limits: remote.Limits{PerConnBurst: 8}, want: errBurstWithoutRate},
		{name: "burst exceeds budget", limits: remote.Limits{MaxInflight: 4, PerConnRate: 100, PerConnBurst: 8}, want: errBurstExceedsInflight},
		{name: "derived burst exceeds budget", limits: remote.Limits{MaxInflight: 10, PerConnRate: 500}, want: errBurstExceedsInflight},
		{name: "admission with negative workers", limits: remote.Limits{Fair: true}, workers: -1, want: errAdmissionNeedsWorkers},
		{name: "no admission with negative workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateAdmissionFlags(tc.limits, tc.workers)
			if !errors.Is(err, tc.want) {
				t.Fatalf("validateAdmissionFlags(%+v, %d) = %v, want %v", tc.limits, tc.workers, err, tc.want)
			}
		})
	}
}

// TestOpenArenaCrashRecovery covers the server-side ErrUnclean policy: a
// crashed arena with a checkpoint available is reset (restore rewrites it),
// without a checkpoint startup refuses.
func TestOpenArenaCrashRecovery(t *testing.T) {
	g := testGeometry(t)
	dataDir := t.TempDir()
	ckDir := t.TempDir()

	// Build a dirty (crashed) arena.
	ds, err := openArena(dataDir, "", 0, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	markStore(t, ds, 0xC3)
	ds.Abandon()

	// No checkpoint dir: refuse loudly.
	if _, err := openArena(dataDir, "", 0, g, 0); !errors.Is(err, diskstore.ErrUnclean) {
		t.Fatalf("crashed arena without checkpoints: got %v, want ErrUnclean", err)
	}
	// Checkpoint dir configured but no file for this store: still refuse.
	if _, err := openArena(dataDir, ckDir, 0, g, 0); !errors.Is(err, diskstore.ErrUnclean) {
		t.Fatalf("crashed arena without a checkpoint file: got %v, want ErrUnclean", err)
	}

	// With a checkpoint present the arena is reset and serves again.
	srv, stores := testServer(t, 1)
	markStore(t, stores[0], 0xD4)
	if err := saveCheckpoints(ckDir, srv, 3); err != nil {
		t.Fatal(err)
	}
	ds2, err := openArena(dataDir, ckDir, 0, g, 0)
	if err != nil {
		t.Fatalf("crashed arena with a checkpoint available: %v", err)
	}
	defer ds2.Close()
	if got := readMark(t, ds2, 0); got != 0 {
		t.Fatalf("reset arena still holds pre-crash data: mark %#x", got)
	}
}

// TestOpenArenaOtherLayout: an arena written in another record order
// (diskstore.ErrLayout — here a cleanly closed one re-labelled LAORDSK1)
// gets ErrUnclean's policy: refused without a checkpoint to restore from,
// reset when there is one.
func TestOpenArenaOtherLayout(t *testing.T) {
	g := testGeometry(t)
	dataDir := t.TempDir()
	ckDir := t.TempDir()
	ds, err := openArena(dataDir, "", 0, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	markStore(t, ds, 0xC3)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dataDir, "tree-0.laor"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("LAORDSK1"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := openArena(dataDir, "", 0, g, 0); !errors.Is(err, diskstore.ErrLayout) {
		t.Fatalf("old-layout arena without checkpoints: got %v, want ErrLayout", err)
	}
	if _, err := openArena(dataDir, ckDir, 0, g, 0); !errors.Is(err, diskstore.ErrLayout) {
		t.Fatalf("old-layout arena without a checkpoint file: got %v, want ErrLayout", err)
	}
	srv, stores := testServer(t, 1)
	markStore(t, stores[0], 0xD4)
	if err := saveCheckpoints(ckDir, srv, 3); err != nil {
		t.Fatal(err)
	}
	ds2, err := openArena(dataDir, ckDir, 0, g, 0)
	if err != nil {
		t.Fatalf("old-layout arena with a checkpoint available: %v", err)
	}
	defer ds2.Close()
	if got := readMark(t, ds2, 0); got != 0 {
		t.Fatalf("reset arena still holds the old tree: mark %#x", got)
	}
}
