package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
)

type faultMode int

const (
	faultClose    faultMode = iota // close the connection at the frame boundary
	faultTruncate                  // send the header and half the payload, then close
	faultFlip                      // flip one payload bit and carry on
)

func (m faultMode) String() string { return [...]string{"close", "truncate", "flip"}[m] }

// frameHeader is the ckpt container header Mesh.Exchange writes ahead of
// each payload (ckpt.WriteFrame: one Write each), with the payload length
// big-endian at bytes 12..20.
const frameHeader = 24

// faultConn is a peer connection whose outgoing side can be told to
// damage one frame: once armed it lets skip more whole frames through and
// applies the fault to the next.
type faultConn struct {
	net.Conn

	mu      sync.Mutex
	armed   bool
	mode    faultMode
	skip    int
	payload bool // the next Write is a frame's payload, not its header
}

func (c *faultConn) arm(mode faultMode, skip int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed, c.mode, c.skip = true, mode, skip
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload := c.payload
	if !payload && (len(b) != frameHeader || binary.BigEndian.Uint64(b[12:20]) == 0) {
		panic(fmt.Sprintf("faultConn: %d-byte write where a frame header with a payload was expected", len(b)))
	}
	c.payload = !payload
	if !c.armed || c.skip > 0 {
		if payload && c.armed {
			c.skip--
		}
		return c.Conn.Write(b)
	}
	switch {
	case c.mode == faultClose:
		c.Conn.Close()
		return 0, net.ErrClosed
	case !payload:
		return c.Conn.Write(b)
	case c.mode == faultTruncate:
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, net.ErrClosed
	default:
		c.armed = false
		bad := append([]byte(nil), b...)
		bad[len(bad)/2] ^= 0x10
		return c.Conn.Write(bad)
	}
}

// injectFault puts a faultConn between the worker and peer.
func injectFault(w *Worker, peer int) *faultConn {
	fc := &faultConn{Conn: w.mesh.conns[peer]}
	w.mesh.conns[peer] = fc
	w.mesh.rds[peer] = bufio.NewReader(fc)
	return fc
}

// faultConfig is testConfig with short trajectories: the sweep trains
// some four hundred epochs, and what it varies is the round, not the work
// between rounds.
func faultConfig(world, rank int, peers []string) core.TrainConfig {
	cfg := testConfig(world, rank, peers)
	cfg.SeqLen = 16
	return cfg
}

// TestFaultAtEveryFrameBoundary sweeps a closed, truncated or bit-flipped
// frame over every round of an epoch's exchange on a 2-rank mesh. Whatever
// the round, both ranks must come back with a typed error well inside the
// exchange timeout, the half-applied epoch must not reach the checkpoint
// directory, and a fleet restarted from what is there must finish
// byte-identical to an uninterrupted run.
func TestFaultAtEveryFrameBoundary(t *testing.T) {
	const epochs = 3
	ref, err := core.NewTrainer(faultConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := ref.Train(epochs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, ref)
	// Statistics, advantage moments, the policy passes that ran, the value
	// passes, the digest.
	rounds := 2 + refStats[1].PolicyIters + ref.Config().PPO.ValueIters + 1
	if rounds != 23 {
		t.Fatalf("epoch 2 exchanges %d rounds; the sweep expects the default epoch's 23", rounds)
	}
	step := 1
	if testing.Short() {
		step = 5
	}
	for _, mode := range []faultMode{faultClose, faultTruncate, faultFlip} {
		for skip := 0; skip < rounds; skip += step {
			t.Run(fmt.Sprintf("%v/frame=%d", mode, skip), func(t *testing.T) {
				faultedFleet(t, mode, skip, epochs, want)
			})
		}
	}
}

// faultedFleet trains a 2-rank fleet with periodic checkpoints, damages
// frame number skip of epoch 2 on its way from rank 1 to rank 0, checks
// how both ranks fail and what they left on disk, and then resumes a fresh
// fleet from the directory to the end.
func faultedFleet(t *testing.T, mode faultMode, skip, epochs int, want []byte) {
	const world = 2
	ckDir := t.TempDir()
	ck := core.CheckpointConfig{Dir: ckDir, Every: 1}
	opt := Options{ExchangeTimeout: 20 * time.Second}
	peers := sockets(t, world)
	errsBy := make([]error, world)
	doneBy := make([]int, world) // epochs each rank completed
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(faultConfig(world, r, peers))
			if err != nil {
				errsBy[r] = err
				return
			}
			w, err := NewWorker(context.Background(), tr, opt)
			if err != nil {
				errsBy[r] = err
				return
			}
			defer w.Close()
			var fc *faultConn
			if r == 1 {
				fc = injectFault(w, 0)
			}
			_, errsBy[r] = w.Train(context.Background(), epochs, ck, func(st core.EpochStats) {
				doneBy[r]++
				if fc != nil && st.Epoch == 1 {
					fc.arm(mode, skip)
				}
			})
		}(r)
	}
	wg.Wait()
	if took := time.Since(t0); took > opt.ExchangeTimeout/2 {
		t.Errorf("the fleet took %v to fail; a rank sat in a timeout", took)
	}
	for r, err := range errsBy {
		var pe *PeerError
		if !errors.As(err, &pe) && !errors.Is(err, ErrDiverged) {
			t.Errorf("rank %d: err = %v, want a *PeerError or ErrDiverged", r, err)
		}
	}
	// Rank 0 writes the periodic checkpoints, one per epoch it completed;
	// the epoch the fault interrupted must not be among them.
	entries, err := ckpt.List(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != doneBy[0] || doneBy[0] >= epochs {
		t.Fatalf("%d checkpoints on disk after rank 0 completed %d of %d epochs", len(entries), doneBy[0], epochs)
	}

	peers = sockets(t, world)
	bytesBy := make([][]byte, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(faultConfig(world, r, peers))
			var c *core.TrainerCheckpoint
			if err == nil {
				c, err = tr.ResumeLatest(ckDir)
			}
			if err == nil && c.Epoch != doneBy[0] {
				err = fmt.Errorf("resumed at epoch %d, rank 0 completed %d", c.Epoch, doneBy[0])
			}
			if err == nil {
				_, err = Train(context.Background(), tr, epochs-c.Epoch, ck, Options{}, nil)
			}
			if err != nil {
				errsBy[r] = err
				return
			}
			errsBy[r], bytesBy[r] = nil, stateBytes(t, tr)
		}(r)
	}
	wg.Wait()
	for r, err := range errsBy {
		if err != nil {
			t.Fatalf("restarted rank %d: %v", r, err)
		}
		if !bytes.Equal(bytesBy[r], want) {
			t.Errorf("restarted rank %d: state differs from the uninterrupted run", r)
		}
	}
}
