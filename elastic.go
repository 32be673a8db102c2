package laoram

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/remote"
)

// Elastic serving: the placement of shards onto nodes, fixed at dial time
// by the i % N rule, becomes a dynamic table once the instance is running.
// Migrate moves one shard's tree to another node live — the lane pauses
// only for the snapshot/restore round trip (the migration blackout), the
// stash and position map never notice, and there is no source rewind and
// no rollback. MigrateOff drains a whole node, and StartHealthMonitor
// polls every node's opHealth heartbeat so a draining node (laoramserve
// under SIGTERM) is evacuated proactively. Health-based *re-placement* —
// moving a dead node's shards from the last checkpoint onto survivors —
// lives in Train's recovery loop (Recovery.Replace), which is the
// component that owns checkpoints and replay.

// remote reports whether this instance serves through remote nodes.
func (o *ORAM) remote() bool {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	return len(o.remotes) > 0
}

// placeAddr returns the address of the node currently serving shard s.
func (o *ORAM) placeAddr(s int) string {
	return o.places[s].Client().Addr()
}

// Placement reports which node address currently serves each shard —
// the live placement table, starting as the modulo assignment over
// Options.RemoteAddrs and changing under Migrate/MigrateOff and
// Recovery.Replace re-placements. Nil for local instances.
func (o *ORAM) Placement() []string {
	if !o.remote() {
		return nil
	}
	out := make([]string, len(o.places))
	for s := range out {
		out[s] = o.placeAddr(s)
	}
	return out
}

// nodeClient returns the connection to addr, dialling — and retaining for
// the instance's lifetime — a new one when none exists yet (migrating onto
// a node the instance did not start with).
func (o *ORAM) nodeClient(ctx context.Context, addr string) (*remote.Client, error) {
	o.pmu.Lock()
	for _, rc := range o.remotes {
		if rc.Addr() == addr {
			o.pmu.Unlock()
			return rc, nil
		}
	}
	o.pmu.Unlock()
	rc, err := remote.DialConfig(ctx, addr, remote.Config{
		Reconnect:       o.opts.Reconnect,
		RetryElapsed:    o.opts.RetryElapsed,
		RequestDeadline: o.opts.RequestDeadline,
		ShedRetries:     o.opts.ShedRetries,
	})
	if err != nil {
		return nil, fmt.Errorf("laoram: migrate target %s: %w", addr, err)
	}
	o.pmu.Lock()
	o.remotes = append(o.remotes, rc)
	o.pmu.Unlock()
	return rc, nil
}

// MigrateStats reports what one migration (or a MigrateOff sweep) cost.
type MigrateStats struct {
	// Blackout is how long the shard's lane was paused: the placement
	// write lock was held across snapshot → restore → repoint, so no
	// access could touch the shard. Everything outside this window ran at
	// full speed; other shards never paused at all.
	Blackout time.Duration
	// Moved counts the migrated shards (1 for Migrate; MigrateOff sums).
	Moved int
}

// Migrate moves shard's server tree to the node at targetAddr, live: the
// shard's lane drains (new accesses block on the placement lock), the tree
// is snapshotted at its current node via the checkpoint coordinator RPC
// and restored into a store the target grows for it (the target must run
// with a store factory — laoramserve does by default), and the placement
// table repoints. Accesses resume against the new node with the client's
// stash and position map untouched: no source rewind, no rollback, and the
// final state is byte-identical to a run that never migrated. On error the
// old placement keeps serving — a failed migration never leaves a
// half-migrated shard. Migrating to the shard's current node is a no-op.
//
// Safe to call while a training session runs (the lane pauses for the
// blackout and resumes); ctx governs only the dial of a previously unknown
// target node.
func (o *ORAM) Migrate(ctx context.Context, shard int, targetAddr string) (MigrateStats, error) {
	if !o.remote() {
		return MigrateStats{}, fmt.Errorf("laoram: Migrate requires a remote instance (Options.RemoteAddrs)")
	}
	if shard < 0 || shard >= o.eng.Shards() {
		return MigrateStats{}, fmt.Errorf("laoram: Migrate shard %d out of range (%d shards)", shard, o.eng.Shards())
	}
	if targetAddr == "" {
		return MigrateStats{}, fmt.Errorf("laoram: Migrate needs a target address")
	}
	place := o.places[shard]
	if place.Client().Addr() == targetAddr {
		return MigrateStats{}, nil
	}
	tc, err := o.nodeClient(ctx, targetAddr)
	if err != nil {
		return MigrateStats{}, err
	}
	view, err := tc.AddStore()
	if err != nil {
		return MigrateStats{}, fmt.Errorf("laoram: migrate shard %d to %s: %w", shard, targetAddr, err)
	}
	blackout, err := place.MigrateTo(view)
	if err != nil {
		return MigrateStats{}, fmt.Errorf("laoram: migrate shard %d to %s: %w", shard, targetAddr, err)
	}
	return MigrateStats{Blackout: blackout, Moved: 1}, nil
}

// MigrateOff evacuates every shard currently served by the node at addr,
// spreading them round-robin over the other nodes the instance is
// connected to — the client half of a graceful drain: when a node
// announces draining (opHealth), migrate its shards off before it exits.
// Stats aggregate across the moved shards; on error the sweep stops with
// the completed migrations kept (each shard moves atomically).
func (o *ORAM) MigrateOff(ctx context.Context, addr string) (MigrateStats, error) {
	if !o.remote() {
		return MigrateStats{}, fmt.Errorf("laoram: MigrateOff requires a remote instance (Options.RemoteAddrs)")
	}
	var out MigrateStats
	err := o.evacuate(addr, func(s int, view *remote.ShardStore) error {
		blackout, err := o.places[s].MigrateTo(view)
		if err == nil {
			out.Blackout += blackout
			out.Moved++
		}
		return err
	})
	return out, err
}

// evacuate re-homes every shard the placement table routes to addr:
// round-robin over the other connected nodes, each grows a store
// (opAddStore) and move makes it the shard's home — MigrateTo copies the
// live tree over, Repoint (re-placement) switches to it and leaves the
// content to a checkpoint restore. It stops at the first error, keeping
// the shards already moved.
func (o *ORAM) evacuate(addr string, move func(s int, view *remote.ShardStore) error) error {
	var targets []*remote.Client
	for _, rc := range o.remoteList() {
		if rc.Addr() != addr {
			targets = append(targets, rc)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("laoram: no node other than %s to move its shards to", addr)
	}
	rr := 0
	for s := range o.places {
		if o.placeAddr(s) != addr {
			continue
		}
		tc := targets[rr%len(targets)]
		rr++
		view, err := tc.AddStore()
		if err == nil {
			err = move(s, view)
		}
		if err != nil {
			return fmt.Errorf("laoram: move shard %d from %s to %s: %w", s, addr, tc.Addr(), err)
		}
	}
	return nil
}

// HealthEvent is one observation of the health monitor.
type HealthEvent struct {
	// Addr is the node observed.
	Addr string
	// Draining is set when the node announced a graceful drain (it stops
	// accepting new connections and wants its shards migrated off).
	Draining bool
	// Down is set when the heartbeat failed — with Options.Reconnect the
	// probe parked through a full RetryElapsed redial budget first, so a
	// Down node has been unreachable past it.
	Down bool
	// Err is the heartbeat error for Down events.
	Err error
	// Migrated reports the automatic evacuation this event triggered
	// (AutoMigrate on drain events), if any.
	Migrated *MigrateStats
}

// MonitorOptions tunes StartHealthMonitor.
type MonitorOptions struct {
	// Interval between heartbeat sweeps (default 500ms).
	Interval time.Duration
	// AutoMigrate evacuates a draining node's shards automatically
	// (MigrateOff onto the surviving nodes) the first time it reports
	// draining.
	AutoMigrate bool
	// OnEvent observes state transitions (node went down, came back,
	// started draining) and auto-migrations. Called from the monitor
	// goroutine; may be nil.
	OnEvent func(HealthEvent)
}

// StartHealthMonitor begins polling every connected node's opHealth
// heartbeat on a background goroutine, reporting state transitions through
// OnEvent and — with AutoMigrate — evacuating draining nodes. The returned
// stop function halts the monitor and waits for it to exit. Monitoring is
// advisory: nothing it does rewinds training; a node that dies outright is
// the job of Train's recovery loop (Recovery.Replace).
func (o *ORAM) StartHealthMonitor(opts MonitorOptions) (stop func(), err error) {
	if !o.remote() {
		return nil, fmt.Errorf("laoram: health monitoring requires a remote instance (Options.RemoteAddrs)")
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		type nodeState struct {
			down     bool
			draining bool // latched: each node auto-migrates at most once
		}
		states := make(map[string]*nodeState)
		emit := func(ev HealthEvent) {
			if opts.OnEvent != nil {
				opts.OnEvent(ev)
			}
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			for _, rc := range o.remoteList() {
				addr := rc.Addr()
				st := states[addr]
				if st == nil {
					st = &nodeState{}
					states[addr] = st
				}
				draining, _, err := rc.Health()
				if err != nil {
					if !st.down {
						st.down = true
						emit(HealthEvent{Addr: addr, Down: true, Err: err})
					}
					continue
				}
				if st.down {
					st.down = false
					emit(HealthEvent{Addr: addr})
				}
				if draining && !st.draining {
					st.draining = true
					ev := HealthEvent{Addr: addr, Draining: true}
					if opts.AutoMigrate {
						if ms, err := o.MigrateOff(context.Background(), addr); err != nil {
							ev.Err = err
						} else {
							ev.Migrated = &ms
						}
					}
					emit(ev)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}, nil
}
