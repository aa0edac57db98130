package main

import "time"

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name  string
	Why   string
	Group string // which layer group measures it (see groups)
}

var workloads = []workloadDef{
	{"serve-shallow", "real inspectord on loopback, one closed-loop keep-alive client, 100% /v1/inspect with 0-8 queue items: net/http, loopback and handler plumbing dominate; queue-proportional layers do almost nothing", "serve"},
	{"serve-mixed", "same daemon, seeded mix: 94% inspect with 64-256 queue items, plus simulate, explain/last, scrape, snapshot, reload: decode, NewState, features scale with depth; reads and reload share the recorders", "serve"},
	{"train-epoch", "in-process core.Trainer, SJF/bsld, batch 32 x seqlen 128, Workers=nproc on one CPU, fresh trainer every 2 epochs: the paper's training loop; separates the rollout from the serial PPO update", "train"},
	{"eval-backfill", "in-process core.Evaluate of the set-up model, F1 + EASY backfilling, 500 sequences x 256 jobs per pass: inference only, no PPO update, so rl/nn-backward changes must not move it and sim changes do", "eval"},
	{"dist-2w", "two dist.Workers (world 2, Workers=1 each) over a unix-socket mesh on the train-epoch config, sharing one CPU: the only workload where the dist codec, transport, barrier and digest exchange run", "dist"},
	{"online-cycle", "in-process serve.Handler ring filled through ServeHTTP, then online.Loop.RunCycle (tail, reconstruct, retrain, two shadow evals, reject): the only one composing ring, replay window, training, eval", "online"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one metric. Bound applies to end-to-end metrics only.
// Home and Moves document a per-layer metric: the workloads whose traced run
// measures it at full size, and the end-to-end metric it is expected to
// move (README.md holds the full interaction table).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Home   string
	Moves  string
}

// endToEnd are reported by every untraced run. Every workload fills every
// one of them: an "op" is an inspect request on the serve workloads, an
// epoch on train-epoch and dist-2w, an evaluation pass on eval-backfill and
// a retrain cycle on online-cycle; ops_per_s counts requests, trajectories,
// simulated jobs and replayed decisions respectively. The timings are
// medians taken on one pinned CPU (affinity.go) and scaled to the reference
// speed (calib.go), and there is no tail latency among them: stats.go says
// why, and the inspect p99 is the per-layer serve.inspect_p99_us.
//
// Every bound is the largest the contract allows: the reference box is a
// shared 2-vCPU microVM, and what pinning and scaling leave of its noise is
// a spread of a few hundredths between runs of one commit in a quiet spell
// and up to a tenth across a busy one. README.md has the measured spreads.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	homeServe  = "serve-shallow serve-mixed"
	homeMixed  = "serve-mixed"
	homeTrain  = "train-epoch"
	homeEval   = "eval-backfill"
	homeDist   = "dist-2w"
	homeOnline = "online-cycle"

	movesMixed   = "op_p50_ms, ops_per_s on serve-mixed; not serve-shallow"
	movesShallow = "op_p50_ms on serve-shallow, by at most its share of the handler"
	movesOps     = "ops_per_s on serve-mixed"
	movesRollout = "op_p50_ms on train-epoch, dist-2w, online-cycle; eval-backfill only through sim.*"
	movesUpdate  = "op_p50_ms on train-epoch; caps dist.speedup; not eval-backfill"
	movesEval    = "ops_per_s on eval-backfill"
	movesDist    = "op_p50_ms on dist-2w, dist.speedup"
	movesOnline  = "op_p50_ms on online-cycle"
)

// perLayer are reported by every traced run. A traced run measures the
// layers of its own workload at full size and every other group at quick
// size, so each value is a measurement; compare a per-layer number only
// between runs of the same workload.
var perLayer = []metricDef{
	{Name: "serve.decode_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesMixed},
	{Name: "sim.newstate_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesMixed},
	{Name: "core.features_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesMixed},
	{Name: "nn.forward_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: "nothing: under 1 us of a 90 us request"},
	{Name: "core.explain_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesMixed},
	{Name: "obs.emit_decision_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.encode_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.handler_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: "op_p50_ms, ops_per_s on both serve workloads"},
	{Name: "serve.handler_self_ns", Unit: "ns", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.handler_allocs_per_op", Unit: "count", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.handler_bytes_per_op", Unit: "B", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Home: homeServe, Moves: "op_p50_ms on serve-shallow"},
	{Name: "serve.inspect_p99_us", Unit: "us", Better: "lower", Home: homeServe, Moves: "nothing bounded: demoted from end-to-end, ten runs of one commit spread it past any bound"},
	{Name: "serve.daemon_cpu_ms_per_kop", Unit: "ms", Better: "lower", Home: homeServe, Moves: "ops_per_s on both serve workloads"},
	{Name: "serve.wave_size_p50", Unit: "count", Better: "higher", Home: homeServe, Moves: "nothing at one client: waves stay at 1"},
	{Name: "serve.coalesce_p50_us", Unit: "us", Better: "lower", Home: homeServe, Moves: movesShallow},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower", Home: homeServe, Moves: "serve.inspect_p99_us on both serve workloads"},
	{Name: "serve.simulate_p50_us", Unit: "us", Better: "lower", Home: homeMixed, Moves: movesOps},
	{Name: "serve.explain_last_p50_us", Unit: "us", Better: "lower", Home: homeMixed, Moves: movesOps},
	{Name: "serve.trace_snapshot_p50_us", Unit: "us", Better: "lower", Home: homeMixed, Moves: movesOps},
	{Name: "serve.reload_p50_us", Unit: "us", Better: "lower", Home: homeMixed, Moves: movesOps},
	{Name: "serve.metrics_scrape_p50_us", Unit: "us", Better: "lower", Home: homeMixed, Moves: movesOps},

	{Name: "core.rollout_shard_s", Unit: "s", Better: "lower", Home: homeTrain, Moves: movesRollout},
	{Name: "core.apply_deltas_s", Unit: "s", Better: "lower", Home: homeTrain, Moves: movesUpdate},
	{Name: "core.update_share", Unit: "ratio", Better: "lower", Home: homeTrain, Moves: "dist.speedup <= 1/(share + (1-share)/2)"},
	{Name: "rollout.steps_per_epoch", Unit: "count", Better: "lower", Home: homeTrain, Moves: "exact count; scales both phases"},
	{Name: "rl.policy_iters_per_epoch", Unit: "count", Better: "lower", Home: homeTrain, Moves: "exact count; scales core.apply_deltas_s"},
	{Name: "rl.update_ns_per_step", Unit: "ns", Better: "lower", Home: homeTrain, Moves: movesUpdate},
	{Name: "rollout.utilization", Unit: "ratio", Better: "higher", Home: homeTrain, Moves: movesRollout},
	{Name: "core.basecache_hit_ratio", Unit: "ratio", Better: "higher", Home: homeTrain, Moves: movesRollout},
	{Name: "sim.ns_per_decision", Unit: "ns", Better: "lower", Home: homeTrain, Moves: "op_p50_ms on train-epoch, dist-2w, online-cycle, eval-backfill"},
	{Name: "sim.base_ns_per_job", Unit: "ns", Better: "lower", Home: homeTrain, Moves: "op_p50_ms on train-epoch, eval-backfill"},
	{Name: "nn.forward_batch_ns_per_row", Unit: "ns", Better: "lower", Home: homeTrain, Moves: movesRollout},
	{Name: "core.checkpoint_s", Unit: "s", Better: "lower", Home: homeTrain, Moves: "nothing timed: checkpoints are off in every workload"},
	{Name: "core.checkpoint_bytes", Unit: "B", Better: "lower", Home: homeTrain, Moves: "nothing timed"},
	{Name: "train.allocs_per_epoch", Unit: "count", Better: "lower", Home: homeTrain, Moves: "op_p50_ms, rss_peak_mb on train-epoch"},
	{Name: "train.bytes_per_epoch", Unit: "B", Better: "lower", Home: homeTrain, Moves: "op_p50_ms, rss_peak_mb on train-epoch"},

	{Name: "sim.backfill_ns_per_job", Unit: "ns", Better: "lower", Home: homeEval, Moves: movesEval},
	{Name: "sim.nobackfill_ns_per_job", Unit: "ns", Better: "lower", Home: homeEval, Moves: "op_p50_ms on train-epoch (no backfilling there)"},
	{Name: "eval.inspections_per_job", Unit: "count", Better: "lower", Home: homeEval, Moves: "exact count; scales " + movesEval},
	{Name: "eval.rejection_ratio", Unit: "ratio", Better: "lower", Home: homeEval, Moves: "exact count; scales " + movesEval},

	{Name: "dist.epoch_p50_s", Unit: "s", Better: "lower", Home: homeDist, Moves: "numerator base of dist.speedup"},
	{Name: "dist.single_epoch_p50_s", Unit: "s", Better: "lower", Home: homeDist, Moves: "base of dist.speedup"},
	{Name: "dist.speedup", Unit: "ratio", Better: "higher", Home: homeDist, Moves: "single-process Workers=1 epoch p50 over dist epoch p50"},
	{Name: "dist.exchange_wait_s_per_epoch", Unit: "s", Better: "lower", Home: homeDist, Moves: movesDist},
	{Name: "dist.straggler_s_per_epoch", Unit: "s", Better: "lower", Home: homeDist, Moves: movesDist},
	{Name: "dist.bytes_per_epoch", Unit: "B", Better: "lower", Home: homeDist, Moves: "exact count; " + movesDist},
	{Name: "dist.frames_per_epoch", Unit: "count", Better: "lower", Home: homeDist, Moves: "exact count; " + movesDist},
	{Name: "dist.overhead_s", Unit: "s", Better: "lower", Home: homeDist, Moves: movesDist},

	{Name: "online.tail_s", Unit: "s", Better: "lower", Home: homeOnline, Moves: movesOnline},
	{Name: "online.reconstruct_s", Unit: "s", Better: "lower", Home: homeOnline, Moves: movesOnline},
	{Name: "online.retrain_s", Unit: "s", Better: "lower", Home: homeOnline, Moves: movesOnline},
	{Name: "online.shadow_eval_s", Unit: "s", Better: "lower", Home: homeOnline, Moves: movesOnline},
	{Name: "online.unattributed_s", Unit: "s", Better: "lower", Home: homeOnline, Moves: movesOnline},
	{Name: "online.ring_image_bytes", Unit: "B", Better: "lower", Home: homeOnline, Moves: "online.tail_s"},
	{Name: "online.window_size", Unit: "count", Better: "higher", Home: homeOnline, Moves: "online.reconstruct_s"},

	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Home: "every workload", Moves: "traced over untraced op p50 of the run's own workload"},
	{Name: "build_s", Unit: "s", Better: "lower", Home: "every workload", Moves: "nothing timed: go build of cmd/inspectord, outside setup_s"},
}

// sizes are the input sizes of one pass. A traced run uses full sizes for
// its own workload and quick sizes for the other groups; -quick uses quick
// sizes for everything.
type sizes struct {
	shallowReqs, mixedReqs     int // pre-serialised inspect requests per corpus
	simulateReqs, simulateJobs int
	probeReqs                  int // requests replayed by the in-process serve-path probe

	// blockEpochs is the length of a block of train-epoch and dist-2w. Blocks
	// are short (evaluation and online blocks are two ops as well) so that a
	// run repeats each op often and the median of its repeats is steady.
	trainBatch, trainSeqLen, blockEpochs int

	evalSeqs, evalSeqLen int

	// onlineMaxWindow equals onlineFill (the serve ring's 4096 slots at full
	// size), so the replay window is full from the first cycle and every
	// cycle tails, evicts and replays the same number of decisions.
	onlineFill, onlineInject          int
	onlineMinWindow, onlineMaxWindow  int
	onlineEpochs, onlineBatch         int
	onlineSeqLen                      int
	onlineShadowSeqs, onlineShadowLen int

	simWindows int // windows replayed by the sim probes
}

var fullSizes = sizes{
	shallowReqs: 4096, mixedReqs: 1024, simulateReqs: 32, simulateJobs: 128, probeReqs: 2048,
	trainBatch: 32, trainSeqLen: 128, blockEpochs: 2,
	evalSeqs: 500, evalSeqLen: 256,
	onlineFill: 4096, onlineInject: 1024, onlineMinWindow: 2048, onlineMaxWindow: 4096,
	onlineEpochs: 4, onlineBatch: 16, onlineSeqLen: 128, onlineShadowSeqs: 32, onlineShadowLen: 128,
	simWindows: 64,
}

var quickSizes = sizes{
	shallowReqs: 512, mixedReqs: 128, simulateReqs: 8, simulateJobs: 64, probeReqs: 256,
	trainBatch: 8, trainSeqLen: 64, blockEpochs: 2,
	evalSeqs: 50, evalSeqLen: 128,
	onlineFill: 1024, onlineInject: 256, onlineMinWindow: 512, onlineMaxWindow: 1024,
	onlineEpochs: 1, onlineBatch: 4, onlineSeqLen: 64, onlineShadowSeqs: 8, onlineShadowLen: 64,
	simWindows: 8,
}

// Constants of the benchmark's reference input. The trace and every
// trainer seed are fixed, not derived from -seed: at one commit the median
// epoch time of this training config moved between 0.31 s and 0.62 s
// across trainer seeds (the random initial policy sets the rejection rate
// and with it the RL steps per epoch), which no regression bound survives.
// -seed drives the inputs whose cost is stable under reseeding: request
// streams, queue depths, the op mix, the simulate windows and the
// evaluation sequences.
const (
	traceJobs = 20000
	traceSeed = 1
	modelSeed = 1
	trainSeed = 1
	daemonRNG = 7

	setupEpochs, setupBatch, setupSeqLen = 3, 8, 64
)

// quickBudget is what one background group gets in a traced run.
const quickBudget = 300 * time.Millisecond
