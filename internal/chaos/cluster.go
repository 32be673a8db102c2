package chaos

import (
	"fmt"
	"time"

	"repro/internal/oram"
	"repro/internal/shard"
)

// ClusterConfig sizes a Cluster: the table the serving tier holds and how
// many nodes hold it.
type ClusterConfig struct {
	Entries   uint64
	Shards    int
	BlockSize int
	Nodes     int // serving tier: node j holds every shard i with i % Nodes == j
	Fresh     int // extra, initially-empty nodes (migration targets)
}

// Cluster is the multi-node fixture: a serving tier of Nodes laid out under
// the placement laoram.Options.RemoteAddrs encodes, plus optional fresh
// nodes that serve nothing yet. Like laoramserve, every node can grow stores
// for shards migrated or re-placed onto it. Close tears the whole tier down,
// supervisors first.
type Cluster struct {
	nodes   []*Node // the serving tier, then the fresh nodes
	serving int
	stops   []func() // running supervisors
}

// NewCluster boots the tier. When a node fails to start, the ones already
// listening are killed before the error is returned.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.Fresh < 0 {
		return nil, fmt.Errorf("chaos: cluster of %d serving and %d fresh nodes", cfg.Nodes, cfg.Fresh)
	}
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(shard.PerShardEntries(cfg.Entries, cfg.Shards)),
		LeafZ:     4,
		BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	factory := func() (oram.Store, error) { return oram.NewPayloadStore(g, nil) }
	nodes := make([]*Node, cfg.Nodes+cfg.Fresh)
	for j := range nodes {
		// A fresh node holds one placeholder store: the server refuses to
		// serve none, and the factory grows the real ones on opAddStore.
		count := 1
		if j < cfg.Nodes {
			count = int(shard.LoadCount(uint64(cfg.Shards), j, cfg.Nodes))
		}
		nodes[j] = NewNode(func() ([]oram.Store, error) {
			stores := make([]oram.Store, count)
			for i := range stores {
				st, err := factory()
				if err != nil {
					return nil, err
				}
				stores[i] = st
			}
			return stores, nil
		}, 0, nil)
		nodes[j].SetStoreFactory(factory)
	}
	if err := startAll(nodes); err != nil {
		return nil, err
	}
	return &Cluster{nodes: nodes, serving: cfg.Nodes}, nil
}

// startAll starts every node, or none: a failed Start kills the nodes that
// came up before it.
func startAll(nodes []*Node) error {
	for j, n := range nodes {
		if _, err := n.Start(); err != nil {
			for _, up := range nodes[:j] {
				up.Kill()
			}
			return fmt.Errorf("chaos: cluster node %d: %w", j, err)
		}
	}
	return nil
}

func addrs(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for j, n := range nodes {
		out[j] = n.Addr()
	}
	return out
}

// Addrs returns the serving tier's addresses in node order — the value of
// laoram.Options.RemoteAddrs.
func (c *Cluster) Addrs() []string { return addrs(c.nodes[:c.serving]) }

// FreshAddrs returns the fresh nodes' addresses.
func (c *Cluster) FreshAddrs() []string { return addrs(c.nodes[c.serving:]) }

// Node returns serving node j (it panics past the serving tier).
func (c *Cluster) Node(j int) *Node { return c.nodes[:c.serving][j] }

// Supervise puts serving node j under a supervisor (see Node.Supervise) that
// Close stops.
func (c *Cluster) Supervise(j int, delay, poll time.Duration) {
	c.stops = append(c.stops, c.Node(j).Supervise(delay, poll))
}

// SnapshotAll concatenates every serving node's per-shard snapshots in node
// order. It fails if a node is down.
func (c *Cluster) SnapshotAll() ([][]byte, error) {
	var out [][]byte
	for _, n := range c.nodes[:c.serving] {
		snaps, err := n.SnapshotAll()
		if err != nil {
			return nil, err
		}
		out = append(out, snaps...)
	}
	return out, nil
}

// Close stops the supervisors, so nothing restarts a node behind it, then
// kills every node.
func (c *Cluster) Close() {
	for _, stop := range c.stops {
		stop()
	}
	c.stops = nil
	for _, n := range c.nodes {
		n.Kill()
	}
}
