// Package chaos is the fault-injection harness behind the failover
// guarantees: a TCP proxy that can kill connections, add deterministic
// latency/jitter, and truncate writes mid-frame, plus a restartable
// in-process serving-node supervisor (node.go). Tests interpose the proxy
// between a laoram client and a remote node, inject a fault schedule, and
// assert that training still completes byte-identically to an unfaulted
// run — the executable form of DESIGN.md's "Failure model" section.
//
// The injected faults are the three ways a real TCP link to a storage
// node dies: the peer vanishes (connection kill / refused dials), the
// network slows (latency + jitter, which must only ever affect timing,
// never results), and a write is cut partway through a frame (the
// truncation fault, which exercises the length-prefix framing's torn-frame
// detection on the other side).
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Proxy is a fault-injecting TCP forwarder. It listens on a loopback
// address and pipes every accepted connection to the target, applying the
// currently configured faults. All knobs are safe for concurrent use with
// live traffic.
type Proxy struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	latency  time.Duration
	jitter   time.Duration
	rng      *rand.Rand // deterministic jitter schedule
	drop     bool       // refuse (immediately close) new connections
	truncate int        // >=0: cut the next client→server chunk to this many bytes
	links    map[*link]struct{}
	closed   bool

	wg sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	cli, srv net.Conn
	once     sync.Once
}

func (l *link) close() {
	l.once.Do(func() {
		l.cli.Close()
		l.srv.Close()
	})
}

// NewProxy listens on 127.0.0.1:0 and forwards to target. seed fixes the
// jitter schedule so a fault scenario replays identically.
func NewProxy(target string, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		ln:       ln,
		target:   target,
		rng:      rand.New(rand.NewSource(seed)),
		truncate: -1,
		links:    make(map[*link]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the client dials.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency installs a per-chunk forwarding delay of latency ± uniform
// jitter. Zero disables.
func (p *Proxy) SetLatency(latency, jitter time.Duration) {
	p.mu.Lock()
	p.latency, p.jitter = latency, jitter
	p.mu.Unlock()
}

// SetDrop toggles the partition fault: while dropped, new connections are
// accepted and immediately closed (the client sees a refused/reset dial).
func (p *Proxy) SetDrop(drop bool) {
	p.mu.Lock()
	p.drop = drop
	p.mu.Unlock()
}

// KillConns severs every live proxied connection — the connection-kill
// fault. In-flight requests on the other side of the proxy surface as
// read/write errors; the proxy itself keeps accepting unless dropped.
func (p *Proxy) KillConns() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.close()
	}
}

// TruncateNext arms the partial-write fault: the next client→server chunk
// is forwarded cut to n bytes (possibly 0), then the connection is killed,
// leaving a torn frame on the server's socket.
func (p *Proxy) TruncateNext(n int) {
	p.mu.Lock()
	p.truncate = n
	p.mu.Unlock()
}

// Close stops the proxy and severs all links.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		drop, closed := p.drop, p.closed
		p.mu.Unlock()
		if drop || closed {
			conn.Close()
			continue
		}
		srv, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		l := &link{cli: conn, srv: srv}
		p.mu.Lock()
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, conn, srv, true)  // client→server: truncation applies here
		go p.pump(l, srv, conn, false) // server→client
	}
}

// delay returns the current latency draw (deterministic for a fixed seed
// and call sequence).
func (p *Proxy) delay() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.latency
	if p.jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	return d
}

// takeTruncate consumes the armed truncation fault, if any.
func (p *Proxy) takeTruncate() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.truncate < 0 {
		return 0, false
	}
	n := p.truncate
	p.truncate = -1
	return n, true
}

// pump forwards src→dst chunk by chunk, applying latency to every chunk
// and the truncation fault to client→server chunks.
func (p *Proxy) pump(l *link, src, dst net.Conn, clientToServer bool) {
	defer p.wg.Done()
	defer func() {
		l.close()
		p.mu.Lock()
		delete(p.links, l)
		p.mu.Unlock()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.delay(); d > 0 {
				time.Sleep(d)
			}
			chunk := buf[:n]
			if clientToServer {
				if cut, armed := p.takeTruncate(); armed {
					if cut > len(chunk) {
						cut = len(chunk)
					}
					dst.Write(chunk[:cut])
					return // defer kills both sides: the torn frame stands
				}
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			// EOF or error either way: the v2 protocol holds one
			// full-duplex connection open for its whole life, so a dead
			// direction means the connection is done — tear down both
			// sides (the deferred close) rather than half-closing.
			return
		}
	}
}
