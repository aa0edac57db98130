package sim

import (
	"reflect"
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// fuzzProcs is the cluster FuzzEnvStep schedules onto.
const fuzzProcs = 16

// fuzzEpisode decodes fuzz bytes into one Env episode: a six-byte header
// (policy pick, backfill mode, rejection cap, retry interval, snapshot step,
// job count), four bytes per job, and whatever is left as the decision
// bit-stream (accept once it runs dry).
func fuzzEpisode(data []byte) (jobs []workload.Job, cfg Config, snapAt int, decide func(step int) bool) {
	var hdr [6]byte
	copy(hdr[:], data)
	data = data[min(len(data), len(hdr)):]

	n := 1 + int(hdr[5])%64
	if n > len(data)/4 {
		n = len(data) / 4
	}
	submit := 0.0
	for i := 0; i < n; i++ {
		b := data[4*i : 4*i+4]
		submit += float64(b[0]) * 7 // non-decreasing; many ties at 0
		jobs = append(jobs, workload.Job{
			ID: i + 1, User: int(b[3]) % 3, Queue: int(b[3]) % 2,
			Submit: submit,
			Est:    1 + float64(b[1])*37,
			Run:    float64(b[2]) * 41, // 0, shorter and longer than the estimate
			Procs:  1 + int(b[3])%fuzzProcs,
		})
	}
	bits := data[4*n:]

	names := sched.Names()
	var policy sched.Policy
	switch pick := int(hdr[0]) % (len(names) + 2); {
	case pick < len(names):
		policy, _ = sched.ByName(names[pick])
	case pick == len(names):
		policy = sched.NewSlurm(&workload.Trace{Name: "fuzz", MaxProcs: fuzzProcs, Jobs: jobs})
	default:
		policy = unmarked{sched.F1()}
	}
	cfg = Config{
		MaxProcs: fuzzProcs, Policy: policy,
		Backfill:      hdr[1]%3 > 0,
		MaxRejections: int(hdr[2])%6 - 1, // -1 (none allowed), 0 (the default 72), 1..4
		MaxInterval:   float64(hdr[3]) * 5,
	}
	decide = func(step int) bool {
		return step/8 < len(bits) && bits[step/8]>>(step%8)&1 == 1
	}
	return jobs, cfg, int(hdr[4]), decide
}

// FuzzEnvStep drives whole Env episodes from fuzz bytes — job shapes, base
// policy, backfill mode, limits and every decision — and requires that the
// episode terminates within the inspections its rejection cap allows, that
// the run satisfies checkInvariants, and that a mid-episode Snapshot restored
// into the same and into a fresh Env replays the tail to an identical Result.
// Nothing is recovered: the simulator's only documented panics are for
// invalid configuration, which the decoder never produces.
func FuzzEnvStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 1, 3, 12, 4, 7, // F1, EASY, cap 2, 60 s, snapshot at step 4, 8 jobs
		0, 10, 10, 12, 3, 50, 60, 15, 0, 2, 1, 0, 9, 90, 20, 7,
		1, 4, 200, 3, 0, 30, 30, 15, 20, 1, 1, 1, 5, 255, 0, 8,
		0xa5, 0x5a, 0xff})
	f.Add([]byte{7, 2, 0, 0, 2, 5, // Slurm, EASY, default cap and interval
		0, 100, 90, 15, 0, 5, 5, 3, 1, 200, 255, 9, 2, 3, 1, 0, 0, 60, 70, 11, 0x0f})
	f.Add([]byte{8, 1, 1, 1, 0, 4, // F1 re-scored at every use, EASY, no rejections allowed
		0, 9, 9, 15, 0, 9, 9, 15, 0, 1, 1, 0, 0, 1, 1, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, cfg, snapAt, decide := fuzzEpisode(data)
		if len(jobs) == 0 {
			return
		}
		_, maxRej := limits(cfg)
		maxSteps := len(jobs) * (maxRej + 1)

		events := recordEvents(&cfg)
		env := NewEnv()
		_, done, err := env.Reset(jobs, cfg)
		if err != nil {
			t.Fatalf("decoder built invalid jobs: %v", err)
		}
		var snap *Snapshot
		steps := 0
		for ; !done; steps++ {
			if steps == maxSteps {
				t.Fatalf("%d jobs under cap %d still undecided after %d steps", len(jobs), maxRej, steps)
			}
			if steps == snapAt {
				snap = env.Snapshot()
			}
			_, done = env.Step(decide(steps))
		}
		want := cloneResult(env.Result())
		checkInvariants(t, jobs, cfg, want, *events)

		// A snapshot does not hold a stateful policy's own accounting, so a
		// mid-episode Slurm replay is not expected to repeat.
		if _, stateful := cfg.Policy.(sched.UsageObserver); snap == nil || stateful {
			return
		}
		for _, target := range []*Env{env, NewEnv()} {
			_, done = target.Restore(snap)
			for i := snapAt; !done; i++ {
				_, done = target.Step(decide(i))
			}
			if got := target.Result(); !reflect.DeepEqual(want, got) {
				t.Fatalf("replay from the step-%d snapshot diverged\nwant %+v\ngot  %+v",
					snapAt, summarizeResult(want), summarizeResult(got))
			}
		}
	})
}
