package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"schedinspector/internal/ckpt"
)

// ErrPeer is the sentinel every transport-level peer failure matches via
// errors.Is — dial refusals, handshake mismatches, a peer dying mid-epoch,
// or a barrier read timing out on a silent peer. Surviving workers get a
// *PeerError naming the rank instead of hanging.
var ErrPeer = errors.New("dist: peer failure")

// PeerError reports a failure attributable to one peer rank. It matches
// ErrPeer with errors.Is and unwraps to the underlying cause (so deadline
// expiries still match os.ErrDeadlineExceeded, closed connections match
// net.ErrClosed, and so on).
type PeerError struct {
	Rank int    // the peer rank the failure is attributed to
	Op   string // what was being attempted: "dial", "accept", "hello", "send", "recv"
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("dist: peer rank %d: %s: %v", e.Rank, e.Op, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Is reports whether target is ErrPeer.
func (e *PeerError) Is(target error) bool { return target == ErrPeer }

func peerErr(rank int, op string, err error) error {
	return &PeerError{Rank: rank, Op: op, Err: err}
}

// networkFor infers the network of a peer address when Options.Network is
// unset: anything shaped like a filesystem path is a unix socket,
// everything else TCP.
func networkFor(network, addr string) string {
	if network != "" {
		return network
	}
	if strings.ContainsAny(addr, "/") || strings.HasSuffix(addr, ".sock") {
		return "unix"
	}
	return "tcp"
}

// Mesh is the coordinator-less peer transport: a fully-connected set of
// World workers, one duplex connection per peer pair. Rank r listens on
// peers[r], dials every lower rank and accepts from every higher rank, so
// each pair establishes exactly one connection with no central broker.
// Frames are ckpt containers (magic + version + length + CRC-32C), making
// the wire self-delimiting and corruption-evident.
//
// Exchange implements one barrier round: every rank sends its payload to
// all peers and the call returns only once a frame from every peer has
// arrived (or a peer failed / the timeout expired), so no rank can get a
// round ahead of another.
type Mesh struct {
	rank, world int
	opt         Options

	ln    net.Listener
	conns []net.Conn      // by peer rank; nil at own rank
	rds   []*bufio.Reader // buffered readers over conns

	closeOnce sync.Once
	stopWatch func() bool // cancels the ctx watchdog
}

// Connect establishes the full mesh for rank within peers (one listen
// address per rank, in rank order). It blocks until every pairwise
// connection is up and its handshake verified, or until ctx is canceled or
// opt.DialTimeout expires. fp is the local config fingerprint; a peer
// whose hello disagrees is refused with a *PeerError.
func Connect(ctx context.Context, rank int, peers []string, fp uint64, opt Options) (*Mesh, error) {
	opt = opt.withDefaults()
	world := len(peers)
	if world < 2 {
		return nil, fmt.Errorf("dist: mesh needs at least 2 peers, got %d", world)
	}
	if rank < 0 || rank >= world {
		return nil, fmt.Errorf("dist: rank %d out of range for %d peers", rank, world)
	}
	network := networkFor(opt.Network, peers[rank])
	if network == "unix" {
		// A stale socket file from a crashed run blocks the bind.
		os.Remove(peers[rank])
	}
	ln, err := net.Listen(network, peers[rank])
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s %s: %w", network, peers[rank], err)
	}
	m := &Mesh{
		rank:  rank,
		world: world,
		opt:   opt,
		ln:    ln,
		conns: make([]net.Conn, world),
		rds:   make([]*bufio.Reader, world),
	}

	deadline := time.Now().Add(opt.DialTimeout)
	cctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	// Cancellation watchdog: closing the listener and every live
	// connection is what turns blocked accepts/reads into prompt errors.
	watchDone := context.AfterFunc(cctx, func() {
		ln.Close()
		for _, c := range m.conns {
			if c != nil {
				c.Close()
			}
		}
	})

	myHello := encodeHello(hello{World: world, Rank: rank, Fingerprint: fp})
	check := func(peerRank int, h hello) error {
		if h.World != world {
			return fmt.Errorf("peer says world=%d, we have %d", h.World, world)
		}
		if h.Fingerprint != fp {
			return fmt.Errorf("config fingerprint mismatch (%016x vs local %016x): peers must share every training parameter but -rank", h.Fingerprint, fp)
		}
		if peerRank >= 0 && h.Rank != peerRank {
			return fmt.Errorf("dialed rank %d, peer claims rank %d", peerRank, h.Rank)
		}
		return nil
	}

	var (
		mu    sync.Mutex
		errs  []error
		wg    sync.WaitGroup
		fail  = func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }
		admit = func(r int, c net.Conn) { mu.Lock(); m.conns[r], m.rds[r] = c, bufio.NewReader(c); mu.Unlock() }
	)

	// Dial every lower rank, retrying while the peer's listener comes up.
	for p := 0; p < rank; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pn := networkFor(opt.Network, peers[p])
			var d net.Dialer
			var c net.Conn
			var err error
			for {
				c, err = d.DialContext(cctx, pn, peers[p])
				if err == nil || cctx.Err() != nil {
					break
				}
				select {
				case <-time.After(dialRetryInterval):
				case <-cctx.Done():
				}
			}
			if err != nil {
				fail(peerErr(p, "dial", err))
				return
			}
			c.SetDeadline(deadline)
			if err := ckpt.WriteFrame(c, WireVersion, myHello); err != nil {
				c.Close()
				fail(peerErr(p, "hello", err))
				return
			}
			h, err := readHello(c)
			if err == nil {
				err = check(p, h)
			}
			if err != nil {
				c.Close()
				fail(peerErr(p, "hello", err))
				return
			}
			c.SetDeadline(time.Time{})
			admit(p, c)
		}(p)
	}

	// Accept from every higher rank; the dialer's hello identifies it.
	expect := world - 1 - rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got := 0; got < expect; got++ {
			c, err := ln.Accept()
			if err != nil {
				fail(peerErr(-1, "accept", fmt.Errorf("%w (waiting for %d more peers)", err, expect-got)))
				return
			}
			c.SetDeadline(deadline)
			h, err := readHello(c)
			if err == nil {
				err = check(-1, h)
			}
			if err == nil && (h.Rank <= rank || h.Rank >= world) {
				err = fmt.Errorf("peer claims rank %d, expected a rank in (%d, %d)", h.Rank, rank, world)
			}
			if err != nil {
				c.Close()
				fail(peerErr(-1, "hello", err))
				return
			}
			if err := ckpt.WriteFrame(c, WireVersion, myHello); err != nil {
				c.Close()
				fail(peerErr(h.Rank, "hello", err))
				return
			}
			c.SetDeadline(time.Time{})
			admit(h.Rank, c)
		}
	}()
	wg.Wait()
	watchDone()

	if len(errs) > 0 {
		m.Close()
		return nil, errors.Join(errs...)
	}
	// Re-arm the watchdog for the mesh's lifetime: a ctx cancellation
	// during a later Exchange must also unblock reads.
	m.stopWatch = context.AfterFunc(ctx, func() { m.closeConns() })
	m.opt.Logf("dist: rank %d mesh up (%d peers)", rank, world-1)
	return m, nil
}

// dialRetryInterval paces dial retries while a peer's listener starts.
const dialRetryInterval = 100 * time.Millisecond

// readHello reads and decodes one hello frame straight off the connection
// — deliberately unbuffered, so no byte of the frame that follows the
// handshake can be swallowed before the persistent buffered reader takes
// over.
func readHello(c net.Conn) (hello, error) {
	ver, payload, err := ckpt.ReadFrame(c, maxFrame)
	if err != nil {
		return hello{}, err
	}
	if ver != WireVersion {
		return hello{}, fmt.Errorf("peer speaks wire version %d, this build speaks %d", ver, WireVersion)
	}
	return decodeHello(payload)
}

// Exchange runs one all-to-all barrier round: payload goes to every peer,
// and the returned slice holds each rank's payload (the local one included
// at m.Rank()) once every peer's frame has arrived. Reads and writes are
// bounded by opt.ExchangeTimeout — a dead or silent peer surfaces as a
// *PeerError (deadline or closed-connection cause) instead of a hang.
//
// The returned elapsed duration is the round's wall time: since Exchange
// is called the moment local work finishes, it measures the wait on the
// slowest peer (the straggler) plus transfer.
func (m *Mesh) Exchange(payload []byte) ([][]byte, time.Duration, error) {
	t0 := time.Now()
	out := make([][]byte, m.world)
	out[m.rank] = payload
	// Sends and receives run on independent goroutines per peer. This is
	// load-bearing, not style: if both sides of a pair block writing a
	// frame larger than the socket buffers while neither is reading, the
	// barrier deadlocks until the timeout. A dedicated reader per peer
	// keeps draining, so opposing large frames always make progress.
	sendErrs := make([]error, m.world)
	recvErrs := make([]error, m.world)
	var wg sync.WaitGroup
	for p := 0; p < m.world; p++ {
		if p == m.rank {
			continue
		}
		c := m.conns[p]
		if c == nil {
			sendErrs[p] = peerErr(p, "send", net.ErrClosed)
			continue
		}
		wg.Add(2)
		go func(p int, c net.Conn) {
			defer wg.Done()
			c.SetWriteDeadline(time.Now().Add(m.opt.ExchangeTimeout))
			if err := ckpt.WriteFrame(c, WireVersion, payload); err != nil {
				sendErrs[p] = peerErr(p, "send", err)
				return
			}
			m.opt.Metrics.observeSent(len(payload))
		}(p, c)
		go func(p int, c net.Conn) {
			defer wg.Done()
			c.SetReadDeadline(time.Now().Add(m.opt.ExchangeTimeout))
			ver, reply, err := ckpt.ReadFrame(m.rds[p], maxFrame)
			if err != nil {
				recvErrs[p] = peerErr(p, "recv", err)
				return
			}
			if ver != WireVersion {
				recvErrs[p] = peerErr(p, "recv", fmt.Errorf("wire version %d, want %d", ver, WireVersion))
				return
			}
			m.opt.Metrics.observeRecv(len(reply))
			out[p] = reply
		}(p, c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for p := 0; p < m.world; p++ {
		err := recvErrs[p]
		if err == nil {
			err = sendErrs[p]
		}
		if err != nil {
			m.opt.Metrics.observeFailure()
			return nil, elapsed, err
		}
	}
	return out, elapsed, nil
}

// Rank returns the mesh's local rank.
func (m *Mesh) Rank() int { return m.rank }

// World returns the mesh's world size.
func (m *Mesh) World() int { return m.world }

func (m *Mesh) closeConns() {
	for _, c := range m.conns {
		if c != nil {
			c.Close()
		}
	}
}

// Close tears the mesh down: listener and every peer connection. Safe to
// call more than once; blocked peers see closed-connection errors.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() {
		if m.stopWatch != nil {
			m.stopWatch()
		}
		if m.ln != nil {
			m.ln.Close()
		}
		m.closeConns()
	})
	return nil
}
