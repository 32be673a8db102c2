package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/oram"
	"repro/internal/remote"
)

// ErrAlreadyRunning reports a Start/Restart that found the node already
// serving — typically a manual Restart racing the Supervise loop. Both
// restarts serialize under the node lock; the loser gets this typed error
// (wrapped with the node address) instead of a stringly one, so callers
// can treat the race as the benign outcome it is.
var ErrAlreadyRunning = errors.New("chaos: node already running")

// Node supervises one in-process serving node: a remote.Server over stores
// built by a caller-supplied factory, restartable on a pinned address. It
// is the test-sized stand-in for a supervised laoramserve process — Kill
// models a crash (the process dies, in-memory trees are gone), Restart
// models the supervisor bringing it back on the same address from a
// checkpoint, and Snapshot/Restore drive the coordinated-rollback recovery
// protocol on live survivors.
type Node struct {
	build   func() ([]oram.Store, error)
	workers int
	logf    func(string, ...any)

	mu      sync.Mutex
	addr    string // pinned after the first Start
	srv     *remote.Server
	factory func() (oram.Store, error) // armed on every (re)started server; nil = fixed placement
	limits  remote.Limits              // admission control, applied before every Listen

	// foundDown, when set, runs in the supervisor between finding the node
	// dead and waiting for its address to free — the window a manual
	// Restart can win (tests only).
	foundDown func()
}

// NewNode wraps a store factory. Every (re)start calls build() for fresh
// stores — a restarted crash has empty trees until RestoreAll fills them.
// workers and logf are passed through to remote.NewSharded.
func NewNode(build func() ([]oram.Store, error), workers int, logf func(string, ...any)) *Node {
	return &Node{build: build, workers: workers, logf: logf}
}

// Start builds stores and begins serving. The first Start picks a free
// loopback port and pins it; every later Start (via Restart) reuses it, so
// clients reconnect without re-resolving placement.
func (n *Node) Start() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.startLocked()
}

func (n *Node) startLocked() (string, error) {
	if n.srv != nil {
		return "", fmt.Errorf("%w on %s", ErrAlreadyRunning, n.addr)
	}
	stores, err := n.build()
	if err != nil {
		return "", fmt.Errorf("chaos: node store build: %w", err)
	}
	srv, err := remote.NewSharded(stores, n.workers, n.logf)
	if err != nil {
		return "", err
	}
	if n.factory != nil {
		srv.SetStoreFactory(n.factory)
	}
	if n.limits != (remote.Limits{}) {
		// Limits must be armed before Listen: a server that accepted even
		// one connection unprotected would admit its backlog.
		if err := srv.SetLimits(n.limits); err != nil {
			srv.Close()
			return "", fmt.Errorf("chaos: node limits: %w", err)
		}
	}
	listen := n.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	bound, err := srv.Listen(listen)
	if err != nil {
		srv.Close()
		return "", err
	}
	n.addr = bound
	n.srv = srv
	return bound, nil
}

// Addr returns the node's pinned serve address ("" before the first
// Start).
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// Server returns the live remote.Server (nil while killed) for in-process
// snapshot/restore access.
func (n *Node) Server() *remote.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Kill crashes the node: the listener and every connection close, and the
// stores (in-memory trees) are dropped. No-op if already down.
func (n *Node) Kill() error {
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// SetStoreFactory arms opAddStore on the node's server — current and every
// future restart — so migrations and re-placements can land shards on it.
// f builds one store per call with the node's serving geometry.
func (n *Node) SetStoreFactory(f func() (oram.Store, error)) {
	n.mu.Lock()
	n.factory = f
	srv := n.srv
	n.mu.Unlock()
	if srv != nil {
		srv.SetStoreFactory(f)
	}
}

// SetLimits arms admission control (remote.Limits) on the node's server.
// It applies from the NEXT (re)start — limits must be in place before a
// server's Listen, so a live server keeps its current limits until it is
// killed and brought back. Call it before Start for a node that should
// never serve unprotected.
func (n *Node) SetLimits(l remote.Limits) {
	n.mu.Lock()
	n.limits = l
	n.mu.Unlock()
}

// Restart brings a killed node back on its pinned address with fresh
// (empty) stores. The caller restores state afterwards via RestoreAll —
// exactly the supervisor-then-recovery sequence a real deployment runs.
// Losing a restart race (the supervisor or another caller already brought
// the node back) returns ErrAlreadyRunning.
func (n *Node) Restart() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		return "", fmt.Errorf("%w on %s; Kill it first", ErrAlreadyRunning, n.addr)
	}
	if n.addr == "" {
		return "", fmt.Errorf("chaos: node was never started")
	}
	return n.startLocked()
}

// Running reports whether the node currently serves.
func (n *Node) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv != nil
}

// SnapshotAll serialises every shard store under its shard lock — one
// consistent per-node checkpoint, taken while the node keeps serving.
func (n *Node) SnapshotAll() ([][]byte, error) {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("chaos: node %s is down", n.addr)
	}
	snaps := make([][]byte, srv.Shards())
	for s := range snaps {
		var buf bytes.Buffer
		if err := srv.SnapshotShard(s, &buf); err != nil {
			return nil, err
		}
		snaps[s] = buf.Bytes()
	}
	return snaps, nil
}

// RestoreAll loads every shard store from a SnapshotAll checkpoint —
// either into a freshly Restarted node or in place into a live survivor
// being rolled back to the coordinated checkpoint. It repairs the server
// only: a surviving Reconnect client that watched the node restart has
// latched state loss and keeps refusing calls until a restore flows
// through that client (opRestore, e.g. ORAM.LoadState).
func (n *Node) RestoreAll(snaps [][]byte) error {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("chaos: node %s is down", n.addr)
	}
	if len(snaps) != srv.Shards() {
		return fmt.Errorf("chaos: checkpoint has %d shards, node serves %d", len(snaps), srv.Shards())
	}
	for s, snap := range snaps {
		if err := srv.RestoreShard(s, bytes.NewReader(snap)); err != nil {
			return err
		}
	}
	return nil
}

// Supervise starts a background supervisor: every poll interval it checks
// the node, and when it finds it dead it waits for the address to free,
// pauses delay (the restart latency of a real process manager), and
// Restarts the node with fresh empty stores. It is the process-supervision
// half of the automated failover story — Train's recovery loop
// restores state into whatever the supervisor brings back; the supervisor
// itself restores nothing. The returned stop function halts supervision
// and waits for the goroutine to exit (it never kills the node).
func (n *Node) Supervise(delay, poll time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(poll):
			}
			if n.Running() {
				continue
			}
			if n.foundDown != nil {
				n.foundDown()
			}
			n.waitDown(done)
			select {
			case <-done:
				return
			case <-time.After(delay):
			}
			if _, err := n.Restart(); err != nil {
				// Losing to a manual Restart is the expected benign race —
				// the node is up, which is all the supervisor wants. Anything
				// else is worth a log line; the next poll re-evaluates.
				if !errors.Is(err, ErrAlreadyRunning) && n.logf != nil {
					n.logf("chaos: supervisor restart: %v", err)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// WaitDown blocks until nothing accepts on the node's address (the OS may
// briefly keep accepting after Close on some platforms), attempting dials
// until one is refused. It also returns once the node is running again:
// someone restarted it, every dial would succeed, and "down" is over.
func (n *Node) WaitDown() { n.waitDown(nil) }

// waitDown is WaitDown that additionally gives up when stop closes (a nil
// stop never does).
func (n *Node) waitDown(stop <-chan struct{}) {
	for !n.Running() {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			return
		}
		conn.Close()
	}
}
