// Remote: the full client/server deployment of Fig. 5.
//
// server_storage runs as a TCP service (in-process here for a self-
// contained example; run cmd/laoramserve for a real split). The node is
// built from internal/oram and internal/remote, as cmd/laoramserve builds
// it; the client side uses the public laoram API only. The trainer
// client connects over the network — the socket is the paper's red line,
// the insecure channel where the adversary sees every bucket address — and
// performs oblivious accesses plus a look-ahead training pass against it.
// What the ORAM hides is the access pattern: the server sees buckets at
// addresses chosen uniformly at random. Row contents are not sealed on this
// path (Options.Encrypt is rejected with RemoteAddrs until the client can
// seal remote storage; see ROADMAP.md).
//
// The client is built with NewContext: cancelling the context closes the
// connection, which is how a trainer stalled on a dead server is unwound
// (see the Train documentation).
//
//	go run ./examples/remote
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	laoram "repro"
	"repro/internal/oram"
	"repro/internal/remote"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const entries = 1 << 12
	const blockSize = 128

	// --- Server side (would be cmd/laoramserve on another machine) ---
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(entries),
		LeafZ:     4,
		RootZ:     8,
		Profile:   oram.ProfileLinear, // fat tree
		BlockSize: blockSize,
	})
	if err != nil {
		return err
	}
	store, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		return err
	}
	counting := oram.NewCountingStore(store, nil)
	srv := remote.NewServer(counting, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "server_storage listening on %s — tree %s\n", addr, g)

	// --- Client side (the trainer GPU of Fig. 5) ---
	// The context governs the connection: cancel() would close it and
	// fail every in-flight request, unblocking a stalled trainer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db, err := laoram.NewContext(ctx, laoram.Options{
		Entries:     entries,
		RemoteAddrs: []string{addr},
		Seed:        9,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Fprintf(w, "client connected; server reports tree %q\n", db.Describe())

	if err := db.Load(entries, func(id uint64) []byte {
		row := make([]byte, blockSize)
		copy(row, fmt.Sprintf("remote-row-%d", id))
		return row
	}); err != nil {
		return err
	}
	db.ResetStats()

	// Oblivious accesses over the wire.
	if err := db.Write(7, padded("updated over tcp", blockSize)); err != nil {
		return err
	}
	row, err := db.Read(7)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read row 7 over TCP: %q\n", trimZero(row))

	// A streaming look-ahead run against the remote store: windows are
	// preprocessed client-side while earlier windows execute over the
	// wire, and the whole run is cancellable through ctx.
	source, err := laoram.FromTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: entries, Count: 2048, Seed: 10,
	})
	if err != nil {
		return err
	}
	touched := 0
	if _, err := db.Train(ctx, laoram.TrainOptions{
		Source:     source,
		Superblock: 4,
		Visit: func(id uint64, payload []byte) []byte {
			touched++
			return nil
		},
	}); err != nil {
		return err
	}

	st := db.Stats()
	c := counting.Counters()
	fmt.Fprintf(w, "\nsession: %d row visits via %d path reads over the network\n", touched, st.PathReads)
	fmt.Fprintf(w, "server observed: %d bucket reads, %d bucket writes, %.2f MB on the wire\n",
		c.BucketReads, c.BucketWrites, float64(c.BytesRead+c.BytesWritten)/(1<<20))
	fmt.Fprintln(w, "…and no pattern in them: every address is a uniformly random path.")
	return nil
}

func padded(s string, n int) []byte {
	b := make([]byte, n)
	copy(b, s)
	return b
}

func trimZero(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
