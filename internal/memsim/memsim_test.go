package memsim

import (
	"testing"
	"time"

	"repro/internal/oram"
)

func TestModelValidate(t *testing.T) {
	if err := DDR4Default().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	bad := []Model{
		{BytesPerSecond: 0},
		{BytesPerSecond: -1},
		{BytesPerSecond: 1, RequestLatency: -time.Second},
		{BytesPerSecond: 1, PerBlockCPU: -time.Second},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted: %+v", i, m)
		}
	}
}

// TestMeterCharging checks what Model.Time charges for each count, priced
// by hand: bandwidth per bucket transfer at its level's width (whole
// nanoseconds per transfer), one latency per request (PathReads + PathWrites
// + 2·DummyReads) and CPU per block moved.
func TestMeterCharging(t *testing.T) {
	m := Model{
		RequestLatency: time.Microsecond,
		BytesPerSecond: 1e9, // 1 GB/s → 1 ns per byte
		PerBlockCPU:    10 * time.Nanosecond,
	}
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 2, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 100})
	if got := m.Time(g, oram.Counters{}, oram.AccessStats{}); got != 0 {
		t.Fatalf("no counts priced at %v", got)
	}
	var c oram.Counters
	c.LevelTransfers[0] = 1 // 8 slots · 100 B = 800 ns
	c.LevelTransfers[2] = 3 // 4 slots · 100 B = 400 ns each
	if got, want := m.Time(g, c, oram.AccessStats{}), 2000*time.Nanosecond; got != want {
		t.Errorf("transfers: %v, want %v", got, want)
	}
	s := oram.AccessStats{PathReads: 2, PathWrites: 2, DummyReads: 1, Accesses: 9, StashHits: 4, Remaps: 7}
	if got, want := m.Time(g, oram.Counters{}, s), 6*time.Microsecond; got != want {
		t.Errorf("requests: %v, want %v", got, want)
	}
	if got, want := m.Time(g, oram.Counters{}, oram.AccessStats{BlocksMoved: 5}), 50*time.Nanosecond; got != want {
		t.Errorf("blocks moved: %v, want %v", got, want)
	}
	s.BlocksMoved = 5
	if got, want := m.Time(g, c, s), 2000*time.Nanosecond+6*time.Microsecond+50*time.Nanosecond; got != want {
		t.Errorf("all counts: %v, want %v", got, want)
	}
	// Each transfer truncates to whole nanoseconds before it is multiplied:
	// 400 B at 3 GB/s is 133.3 ns, so three transfers cost 399 ns.
	m.BytesPerSecond = 3e9
	var leaf oram.Counters
	leaf.LevelTransfers[2] = 3
	if got, want := m.Time(g, leaf, oram.AccessStats{}), 399*time.Nanosecond; got != want {
		t.Errorf("truncation: %v, want %v", got, want)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Errorf("Speedup = %v, want 5", s)
	}
	if s := Speedup(time.Second, 0); s != 0 {
		t.Errorf("Speedup with zero cfg = %v, want 0", s)
	}
}

// TestBandwidthDominatedOrdering: for paper-like parameters, a fat-tree path
// (more slots) must cost more simulated time than a normal path — the
// (3Z+1)/(2(Z+1)) factor in §VIII-F comes straight from this.
func TestBandwidthDominatedOrdering(t *testing.T) {
	m := DDR4Default()
	const blockBytes = 128
	normal := oram.MustGeometry(oram.GeometryConfig{LeafBits: 20, LeafZ: 4, BlockSize: blockBytes})
	fat := oram.MustGeometry(oram.GeometryConfig{LeafBits: 20, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: blockBytes})
	// One path read: one request, one transfer per level.
	path := func(g *oram.Geometry) (time.Duration, int) {
		var c oram.Counters
		slots := 0
		for lvl := 0; lvl < g.Levels(); lvl++ {
			c.LevelTransfers[lvl] = 1
			slots += g.BucketSize(lvl)
		}
		return m.Time(g, c, oram.AccessStats{PathReads: 1}), slots
	}
	nt, ns := path(normal)
	ft, fs := path(fat)
	if ft <= nt {
		t.Errorf("fat path (%v) should cost more than normal (%v)", ft, nt)
	}
	ratio := float64(ft-time.Microsecond) / float64(nt-time.Microsecond)
	if want := float64(fs) / float64(ns); ratio < want-0.05 || ratio > want+0.05 {
		t.Errorf("bandwidth ratio = %.2f, want ≈ %d/%d = %.2f", ratio, fs, ns, want)
	}
}
