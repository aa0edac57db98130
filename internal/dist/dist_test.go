package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// testTrace is shared across tests: workload synthesis is deterministic,
// so one trace serves every trainer.
var testTrace = workload.SDSCSP2Like(2500, 3)

// testConfig builds the canonical test TrainConfig for one rank of a
// world-sized run (world 1 means single-process: no peers).
func testConfig(world, rank int, peers []string) core.TrainConfig {
	return core.TrainConfig{
		Trace: testTrace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 17, Workers: 2,
		World: world, Rank: rank, Peers: peers,
	}
}

// sockets returns one short unix-socket path per rank. Socket paths count
// against the ~104-byte sun_path limit, hence the terse names.
func sockets(t *testing.T, world int) []string {
	t.Helper()
	dir := t.TempDir()
	peers := make([]string, world)
	for i := range peers {
		peers[i] = filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
	}
	return peers
}

// zeroSeconds strips the only wall-clock-dependent field so EpochStats
// compare bit-exactly.
func zeroSeconds(stats []core.EpochStats) []core.EpochStats {
	out := append([]core.EpochStats(nil), stats...)
	for i := range out {
		out[i].Seconds = 0
	}
	return out
}

// stateBytes returns the canonical serialized trainer state — weights,
// Adam moments, epoch counter — the bytes the equivalence criteria pin.
func stateBytes(t *testing.T, tr *core.Trainer) []byte {
	t.Helper()
	b, err := tr.Checkpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runWorld trains a world-sized in-process fleet over unix sockets and
// returns each rank's per-epoch stats and final serialized state. ck maps
// rank to its checkpoint config (nil means no checkpointing anywhere).
func runWorld(t *testing.T, world, epochs int, ck func(rank int) core.CheckpointConfig) ([][]core.EpochStats, [][]byte) {
	t.Helper()
	return runWorldOf(t, world, epochs, testConfig, ck)
}

// runWorldOf is runWorld with config building each rank's TrainConfig.
func runWorldOf(t *testing.T, world, epochs int, config func(world, rank int, peers []string) core.TrainConfig,
	ck func(rank int) core.CheckpointConfig) ([][]core.EpochStats, [][]byte) {
	t.Helper()
	peers := sockets(t, world)
	statsBy := make([][]core.EpochStats, world)
	bytesBy := make([][]byte, world)
	errsBy := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(config(world, r, peers))
			if err != nil {
				errsBy[r] = err
				return
			}
			var cc core.CheckpointConfig
			if ck != nil {
				cc = ck(r)
			}
			stats, err := Train(context.Background(), tr, epochs, cc, Options{}, nil)
			if err != nil {
				errsBy[r] = err
				return
			}
			statsBy[r] = stats
			bytesBy[r] = stateBytes(t, tr)
		}(r)
	}
	wg.Wait()
	for r, err := range errsBy {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return statsBy, bytesBy
}

// TestEquivDistWorldSizes is the golden distributed-equivalence suite: 2-,
// 3- and 4-worker runs must produce serialized model + Adam state bytes —
// and epoch statistics — identical to the single-process Trainer.Train on
// the same seed and config. Three ranks split the batch of 4 as 2/1/1; the
// last case deals a batch of 7 out as 3/2/2, so every rank's shard is
// several nodes of the reduction and one node spans two ranks.
func TestEquivDistWorldSizes(t *testing.T) {
	const epochs = 2
	for _, tc := range []struct {
		name         string
		world, batch int
	}{
		{"world=2", 2, 4}, {"world=3", 3, 4}, {"world=4", 4, 4}, {"world=3/batch=7", 3, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			config := func(world, rank int, peers []string) core.TrainConfig {
				cfg := testConfig(world, rank, peers)
				cfg.Batch = tc.batch
				return cfg
			}
			ref, err := core.NewTrainer(config(1, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			wantStats, err := ref.Train(epochs, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantStats = zeroSeconds(wantStats)
			wantBytes := stateBytes(t, ref)

			statsBy, bytesBy := runWorldOf(t, tc.world, epochs, config, nil)
			for r := 0; r < tc.world; r++ {
				got := zeroSeconds(statsBy[r])
				if len(got) != len(wantStats) {
					t.Fatalf("rank %d: %d epochs, want %d", r, len(got), len(wantStats))
				}
				for e := range got {
					if got[e] != wantStats[e] {
						t.Errorf("rank %d epoch %d stats diverge:\n got %+v\nwant %+v", r, e, got[e], wantStats[e])
					}
				}
				if !bytes.Equal(bytesBy[r], wantBytes) {
					t.Errorf("rank %d: serialized trainer state differs from single-process run (%d vs %d bytes)",
						r, len(bytesBy[r]), len(wantBytes))
				}
			}
		})
	}
}

// TestDistPeerDeathTypedError covers the kill-one-worker-mid-epoch
// satellite: when a peer dies between epochs, the survivor's next barrier
// fails promptly with an error matching ErrPeer — no hang.
func TestDistPeerDeathTypedError(t *testing.T) {
	peers := sockets(t, 2)
	opt := Options{ExchangeTimeout: 5 * time.Second}
	type outcome struct {
		rank int
		err  error
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(testConfig(2, r, peers))
			if err != nil {
				results <- outcome{r, err}
				return
			}
			w, err := NewWorker(context.Background(), tr, opt)
			if err != nil {
				results <- outcome{r, err}
				return
			}
			defer w.Close()
			if _, err := w.RunEpoch(); err != nil { // epoch 1: both alive
				results <- outcome{r, err}
				return
			}
			if r == 1 { // rank 1 dies between epochs
				w.Close()
				results <- outcome{r, nil}
				return
			}
			_, err = w.RunEpoch() // rank 0's epoch-2 barrier must fail
			results <- outcome{r, err}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workers hung after peer death")
	}
	close(results)
	for o := range results {
		switch o.rank {
		case 1:
			if o.err != nil {
				t.Errorf("rank 1 (the dying peer): unexpected error %v", o.err)
			}
		case 0:
			if !errors.Is(o.err, ErrPeer) {
				t.Errorf("rank 0: err = %v, want one matching ErrPeer", o.err)
			}
			var pe *PeerError
			if !errors.As(o.err, &pe) || pe.Rank != 1 {
				t.Errorf("rank 0: err = %v, want *PeerError naming rank 1", o.err)
			}
		}
	}
}

// TestDistSilentPeerTimesOut pins the other failure shape: a peer that
// stays connected but never sends (stalled, wedged) trips the exchange
// deadline instead of blocking the survivor forever.
func TestDistSilentPeerTimesOut(t *testing.T) {
	peers := sockets(t, 2)
	opt := Options{ExchangeTimeout: 1 * time.Second}
	errCh := make(chan error, 1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(testConfig(2, r, peers))
			if err != nil {
				if r == 0 {
					errCh <- err
				}
				return
			}
			w, err := NewWorker(context.Background(), tr, opt)
			if err != nil {
				if r == 0 {
					errCh <- err
				}
				return
			}
			defer w.Close()
			if r == 1 {
				<-release // hold the connection open, never enter the barrier
				return
			}
			_, err = w.RunEpoch()
			errCh <- err
		}(r)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeer) {
			t.Errorf("err = %v, want one matching ErrPeer", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("survivor did not time out on the silent peer")
	}
	close(release)
	wg.Wait()
}

// TestEquivDistRestartResume covers the restart half of the satellite: a
// fleet stopped after an epoch boundary and restarted from the shared
// checkpoint directory finishes bit-identical to an uninterrupted run.
func TestEquivDistRestartResume(t *testing.T) {
	const world, epochs = 2, 3

	ref, err := core.NewTrainer(testConfig(1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Train(epochs, nil); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, ref)

	ckDir := t.TempDir()
	ck := func(rank int) core.CheckpointConfig {
		return core.CheckpointConfig{Dir: ckDir, Every: 1}
	}
	// Leg 1: one epoch, then the whole fleet stops (the final save lands
	// the epoch-1 checkpoint in the shared directory).
	runWorld(t, world, 1, ck)

	// Leg 2: fresh processes resume from the shared directory and finish.
	peers := sockets(t, world)
	bytesBy := make([][]byte, world)
	errsBy := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := core.NewTrainer(testConfig(world, r, peers))
			if err == nil {
				_, err = tr.ResumeLatest(ckDir)
			}
			if err == nil {
				_, err = Train(context.Background(), tr, epochs-1, ck(r), Options{}, nil)
			}
			if err != nil {
				errsBy[r] = err
				return
			}
			bytesBy[r] = stateBytes(t, tr)
		}(r)
	}
	wg.Wait()
	for r, err := range errsBy {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < world; r++ {
		if !bytes.Equal(bytesBy[r], want) {
			t.Errorf("rank %d: resumed state differs from uninterrupted single-process run", r)
		}
	}
}

// fingerprintFields lists one change to every TrainConfig field the fleet
// must agree on.
var fingerprintFields = []struct {
	name string
	mut  func(*core.TrainConfig)
}{
	{"Seed", func(c *core.TrainConfig) { c.Seed++ }},
	{"Batch", func(c *core.TrainConfig) { c.Batch++ }},
	{"SeqLen", func(c *core.TrainConfig) { c.SeqLen++ }},
	{"World", func(c *core.TrainConfig) { c.World++ }},
	{"LR", func(c *core.TrainConfig) { c.LR *= 2 }},
	{"TrainFrac", func(c *core.TrainConfig) { c.TrainFrac /= 2 }},
	{"Policy", func(c *core.TrainConfig) { c.Policy = sched.FCFS() }},
	{"Metric", func(c *core.TrainConfig) { c.Metric = metrics.Wait }},
	{"RewardKind", func(c *core.TrainConfig) { c.RewardKind = core.NativeReward }},
	{"FeatureMode", func(c *core.TrainConfig) { c.FeatureMode = core.CompactedFeatures }},
	{"Backfill", func(c *core.TrainConfig) { c.Backfill = !c.Backfill }},
	{"MaxInterval", func(c *core.TrainConfig) { c.MaxInterval *= 2 }},
	{"MaxRejections", func(c *core.TrainConfig) { c.MaxRejections++ }},
	{"NoCritic", func(c *core.TrainConfig) { c.NoCritic = true }},
}

// defaulted returns cfg as a trainer built from it reports it.
func defaulted(t *testing.T, cfg core.TrainConfig) core.TrainConfig {
	t.Helper()
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Config()
}

// TestConnectRejectsFingerprintMismatch pins the handshake guard: a change
// to any field that shapes the epoch computation or its round count
// changes the fingerprint and gets the peer refused at Connect, while
// spelling out a default changes nothing.
func TestConnectRejectsFingerprintMismatch(t *testing.T) {
	peers := sockets(t, 2)
	base := defaulted(t, testConfig(2, 0, peers))
	spelled := testConfig(2, 0, peers)
	spelled.LR, spelled.MaxRejections, spelled.TrainFrac = base.LR, base.MaxRejections, base.TrainFrac
	if Fingerprint(defaulted(t, spelled)) != Fingerprint(base) {
		t.Error("a config that spells its defaults out hashes differently from one that leaves them unset")
	}
	for _, f := range fingerprintFields {
		t.Run(f.name, func(t *testing.T) {
			changed := base
			f.mut(&changed)
			if Fingerprint(changed) == Fingerprint(base) {
				t.Fatal("fingerprint unchanged")
			}
			opt := Options{DialTimeout: 10 * time.Second}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for r, cfg := range []core.TrainConfig{base, changed} {
				wg.Add(1)
				go func(r int, cfg core.TrainConfig) {
					defer wg.Done()
					m, err := Connect(context.Background(), r, peers, Fingerprint(cfg), opt)
					if err == nil {
						m.Close()
					}
					errs[r] = err
				}(r, cfg)
			}
			wg.Wait()
			for r, err := range errs {
				if !errors.Is(err, ErrPeer) {
					t.Errorf("rank %d: err = %v, want a fingerprint refusal matching ErrPeer", r, err)
				}
			}
		})
	}
}

// TestFingerprintGolden pins the handshake value of one defaulted config
// with a policy set, so an encoding change to any hashed field — the
// policy name's count-prefixed string included — is a deliberate wire
// break, not an accident that strands a mixed-version mesh.
func TestFingerprintGolden(t *testing.T) {
	cfg := defaulted(t, testConfig(2, 0, sockets(t, 2)))
	if cfg.Policy == nil {
		t.Fatal("config has no policy; the golden covers the policy name")
	}
	const want = 0xf3dc995451e785c7
	if got := Fingerprint(cfg); got != want {
		t.Fatalf("Fingerprint = %#016x, want %#016x", got, uint64(want))
	}
}

// testNodes returns nodes over the given cut points with random vectors of
// the given width.
func testNodes(rng *rand.Rand, width int, cuts ...int) []rl.Node {
	var nodes []rl.Node
	for i := 0; i+1 < len(cuts); i++ {
		nd := rl.Node{Lo: cuts[i], Hi: cuts[i+1], Vec: make([]float64, width)}
		for k := range nd.Vec {
			nd.Vec[k] = rng.NormFloat64()
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

func TestReduceCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := reduceMsg{Epoch: 7, Round: rl.Round{Phase: rl.PhasePolicy, Iter: 3}, Nodes: testNodes(rng, 11, 5, 6, 8)}
	m.Nodes = append(m.Nodes, rl.Node{Lo: 8, Hi: 9, Vec: []float64{}})
	enc := appendReduce(nil, m)
	got, err := decodeReduce(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Round != m.Round {
		t.Fatalf("header round trip: got %+v", got)
	}
	if len(got.Nodes) != len(m.Nodes) {
		t.Fatalf("%d nodes, want %d", len(got.Nodes), len(m.Nodes))
	}
	for i := range m.Nodes {
		a, b := m.Nodes[i], got.Nodes[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || !floatsEqual(a.Vec, b.Vec) {
			t.Errorf("node %d diverges: %+v vs %+v", i, a, b)
		}
	}
	// The encode buffer is reused: a second message over the first's bytes
	// must not carry any of them.
	if again := appendReduce(enc[:0], m); !bytes.Equal(again, enc) {
		t.Error("encoding into a reused buffer differs")
	}
	// Truncated payloads must fail, never mis-decode.
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeReduce(enc[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

// TestCodecGoldens pins the wire bytes of every message kind. The
// constants were generated at commit 71877ee, before dist's private
// binWriter/binReader were replaced by ckpt.Writer/Reader: moving the codec
// must not move a byte (WireVersion stays 2).
func TestCodecGoldens(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nodes := append(testNodes(rng, 7, 0, 2, 3), testNodes(rng, 3, 3, 5)...) // ragged widths
	nodes = append(nodes, rl.Node{Lo: 5, Hi: 6, Vec: []float64{}},
		rl.Node{Lo: 6, Hi: 8, Vec: []float64{math.Inf(-1), math.Copysign(0, -1), 1e-310}})
	for _, g := range []struct {
		name string
		enc  []byte
		sum  string
	}{
		{"hello", encodeHello(hello{World: 3, Rank: 2, Fingerprint: 0x0123456789abcdef}),
			"9bf1be7795b1fad829db669e977470ba3fdca4e7334296742408dff05065ef8a"},
		{"reduce", appendReduce([]byte{0xaa}, reduceMsg{Epoch: 1<<33 + 5, Round: rl.Round{Phase: rl.PhaseValue, Iter: 9}, Nodes: nodes})[1:],
			"056568328129787bc4217c76bd1e1ff2de340cc05a70dc68eb02cdfc05449007"},
		{"digest", encodeDigest(digestMsg{Epoch: 41, Rank: 1, State: Digest{Sum: 0xfedcba9876543210, Len: 31337}}),
			"92be155d95ebb66cf0bdfb077583f76b822606677478f3bf776e08241291f36c"},
	} {
		if sum := sha256.Sum256(g.enc); hex.EncodeToString(sum[:]) != g.sum {
			t.Errorf("%s: sha-256 %x, want %s", g.name, sum, g.sum)
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeReduce: the reduce-frame decoder returns an error or a message
// that re-encodes to the bytes it was given, and never sizes anything by a
// count the remaining bytes cannot back.
func FuzzDecodeReduce(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	f.Add(appendReduce(nil, reduceMsg{Epoch: 1, Round: rl.Round{Phase: rl.PhaseMoments}, Nodes: testNodes(rng, 3, 0, 2, 3)}))
	f.Add(appendReduce(nil, reduceMsg{Epoch: 1 << 40, Round: rl.Round{Phase: rl.PhaseValue, Iter: 9}}))
	f.Add([]byte{msgReduce, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeReduce(data)
		if err != nil {
			return
		}
		values := 0
		for _, nd := range m.Nodes {
			values += len(nd.Vec)
		}
		if len(m.Nodes)*12+values*8 > len(data) {
			t.Fatalf("decoded %d nodes and %d values from %d bytes", len(m.Nodes), values, len(data))
		}
		if again := appendReduce(nil, m); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs: %x vs %x", again, data)
		}
	})
}

// TestReduceValidation pins gather's refusal of every malformed round:
// wrong epoch or round, a peer sending another rank's range, wrong bounds,
// a short or empty cover, nodes out of order — each a *PeerError naming
// the peer.
func TestReduceValidation(t *testing.T) {
	const batch, world, epoch = 6, 2, 3
	round := rl.Round{Phase: rl.PhaseValue, Iter: 2}
	rng := rand.New(rand.NewSource(6))
	own := testNodes(rng, 4, 0, 2, 3)
	peer := func() reduceMsg {
		return reduceMsg{Epoch: epoch, Round: round, Nodes: testNodes(rng, 4, 3, 4, 6)}
	}
	run := func(m reduceMsg) ([]rl.Node, error) {
		return gather(batch, 0, epoch, round, own, [][]byte{nil, appendReduce(nil, m)})
	}

	all, err := run(peer())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]int{{0, 2}, {2, 3}, {3, 4}, {4, 6}} {
		if i >= len(all) || all[i].Lo != want[0] || all[i].Hi != want[1] {
			t.Fatalf("gathered nodes %+v, want ranges [0,2) [2,3) [3,4) [4,6)", all)
		}
	}

	cases := []struct {
		name string
		mut  func(*reduceMsg)
	}{
		{"missing shard", func(m *reduceMsg) { m.Nodes = nil }},
		{"stale epoch", func(m *reduceMsg) { m.Epoch = epoch - 1 }},
		{"wrong round", func(m *reduceMsg) { m.Round.Iter++ }},
		{"wrong phase", func(m *reduceMsg) { m.Round.Phase = rl.PhasePolicy }},
		{"duplicate rank", func(m *reduceMsg) { m.Nodes = testNodes(rng, 4, 0, 2, 3) }},
		{"wrong bounds", func(m *reduceMsg) { m.Nodes[0].Lo-- }},
		{"short shard", func(m *reduceMsg) { m.Nodes = m.Nodes[:1] }},
		{"long shard", func(m *reduceMsg) { m.Nodes[1].Hi++ }},
		{"empty node", func(m *reduceMsg) { m.Nodes[0].Hi = m.Nodes[0].Lo }},
		{"nodes out of order", func(m *reduceMsg) { m.Nodes[0], m.Nodes[1] = m.Nodes[1], m.Nodes[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := peer()
			tc.mut(&m)
			_, err := run(m)
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Rank != 1 {
				t.Errorf("err = %v, want a *PeerError naming rank 1", err)
			}
		})
	}
	if _, err := gather(batch, 0, epoch, round, own, [][]byte{nil, {msgDigest}}); !errors.Is(err, ErrPeer) {
		t.Errorf("a digest frame in a reduce round: err = %v, want one matching ErrPeer", err)
	}
}

// TestShardRangeCovers sanity-checks the canonical split every worker
// relies on.
func TestShardRangeCovers(t *testing.T) {
	for _, tc := range []struct{ batch, world int }{{4, 2}, {5, 2}, {100, 4}, {7, 7}, {3, 2}} {
		prev := 0
		for r := 0; r < tc.world; r++ {
			lo, hi := core.ShardRange(tc.batch, tc.world, r)
			if lo != prev || hi < lo {
				t.Errorf("ShardRange(%d, %d, %d) = [%d, %d), want lo %d", tc.batch, tc.world, r, lo, hi, prev)
			}
			prev = hi
		}
		if prev != tc.batch {
			t.Errorf("ShardRange(%d, %d, *) covers %d indices", tc.batch, tc.world, prev)
		}
	}
}
