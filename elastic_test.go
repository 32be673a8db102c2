package laoram

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestHealthMonitorDrainMigrates is the client's reaction to a node's
// graceful drain (laoramserve under SIGTERM): with AutoMigrate the monitor
// sees the drain once, moves every shard off the node onto the others (a
// fresh node the instance reached by an earlier Migrate among them), and the
// table reads the same afterwards. A node that then dies is reported Down
// exactly once, however many sweeps see it down.
func TestHealthMonitorDrainMigrates(t *testing.T) {
	const entries, blockSize, shards = 1 << 10, 16, 4
	const interval = 5 * time.Millisecond
	cl, err := chaos.NewCluster(chaos.ClusterConfig{
		Entries: entries, Shards: shards, BlockSize: blockSize, Nodes: 2, Fresh: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	db, err := New(Options{Entries: entries, Shards: shards, RemoteAddrs: cl.Addrs(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 2000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	trainOneWindow(t, db, stream, 4, 0, trainInit(blockSize), trainVisit)
	// Shard 1 moves to the fresh node, so the instance holds a connection
	// to it and the drain below has two nodes to spread over.
	if _, err := db.Migrate(context.Background(), 1, cl.FreshAddrs()[0]); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, entries)
	for id := range want {
		if want[id], err = db.Read(uint64(id)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu     sync.Mutex
		events []HealthEvent
	)
	stop, err := db.StartHealthMonitor(MonitorOptions{
		Interval: interval, AutoMigrate: true,
		OnEvent: func(ev HealthEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// waitFor polls until some event satisfies match, then returns every
	// event that does.
	waitFor := func(what string, match func(HealthEvent) bool) []HealthEvent {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			mu.Lock()
			var got []HealthEvent
			for _, ev := range events {
				if match(ev) {
					got = append(got, ev)
				}
			}
			mu.Unlock()
			if len(got) > 0 {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s event", what)
			}
			time.Sleep(interval)
		}
	}

	drained := cl.Addrs()[0]
	onDrained := 0
	for _, a := range db.Placement() {
		if a == drained {
			onDrained++
		}
	}
	cl.Node(0).Server().Drain()
	waitFor("draining", func(ev HealthEvent) bool { return ev.Draining })
	// Ten more sweeps see the node draining and must not migrate again.
	time.Sleep(10 * interval)
	drains := waitFor("draining", func(ev HealthEvent) bool { return ev.Draining })
	if len(drains) != 1 {
		t.Fatalf("%d draining events, want 1: %+v", len(drains), drains)
	}
	ev := drains[0]
	if ev.Addr != drained || ev.Err != nil || ev.Migrated == nil || ev.Migrated.Moved != onDrained {
		t.Fatalf("drain event %+v (migrated %+v), want %s with %d shards moved", ev, ev.Migrated, drained, onDrained)
	}
	for s, a := range db.Placement() {
		if a == drained {
			t.Errorf("shard %d still placed on the drained node", s)
		}
	}
	for id := range want {
		got, err := db.Read(uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[id]) {
			t.Fatalf("block %d reads differently after the drain migration", id)
		}
	}

	cl.Node(0).Kill()
	waitFor("down", func(ev HealthEvent) bool { return ev.Down })
	// Ten more sweeps see the node down and must report nothing new.
	time.Sleep(10 * interval)
	downs := waitFor("down", func(ev HealthEvent) bool { return ev.Down })
	if len(downs) != 1 || downs[0].Addr != drained || downs[0].Err == nil {
		t.Errorf("down events %+v, want one for %s with its error", downs, drained)
	}
}
