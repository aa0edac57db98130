package sim

import (
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// The head-to-head benchmark behind the Env refactor's performance claim:
// the same inspected 256-job episode through the steppable Env core and
// through the verbatim seed engine (legacyRun, preserved in env_test.go).
// The Env path reuses every buffer across episodes, so its per-decision
// cost must undercut the seed's allocating fillState/reservation path.

func benchWindow(b *testing.B) ([]workload.Job, Config) {
	b.Helper()
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := Config{
		MaxProcs:  tr.MaxProcs,
		Policy:    sched.SJF(),
		Backfill:  true,
		Inspector: scriptedInspector(),
	}
	return jobs, cfg
}

// runEnvEpisodes times b.N warm episodes of jobs under cfg on one reused Env
// — the steady-state path every rollout driver runs — and returns how many
// decisions they inspected.
func runEnvEpisodes(b *testing.B, jobs []workload.Job, cfg Config) int {
	b.Helper()
	if err := ValidateJobs(jobs, cfg.MaxProcs); err != nil {
		b.Fatal(err)
	}
	cfg.NoValidate = true
	env := NewEnv()
	episode := func() int {
		if _, err := RunEnv(env, jobs, cfg); err != nil {
			b.Fatal(err)
		}
		return env.Result().Inspections
	}
	episode() // warm up the reusable buffers
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		decisions += episode()
	}
	return decisions
}

// BenchmarkEnvInspected measures the Env-driven interactive episode.
func BenchmarkEnvInspected(b *testing.B) {
	jobs, cfg := benchWindow(b)
	decisions := runEnvEpisodes(b, jobs, cfg)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
}

// BenchmarkEnvBackfillF1 is the window under F1 + EASY backfilling, the
// configuration half the paper's figures evaluate, inspected and bare, per
// job. Every other benchmark here runs SJF, whose score is a field load:
// this is the one that sees what a Policy.Score call costs the scheduling
// points and backfill probes, and so whether scores are stored at arrival.
func BenchmarkEnvBackfillF1(b *testing.B) {
	jobs, cfg := benchWindow(b)
	cfg.Policy = sched.F1()
	for _, bc := range []struct {
		name      string
		inspector Inspector
	}{{"inspected", cfg.Inspector}, {"uninspected", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := cfg
			cfg.Inspector = bc.inspector
			runEnvEpisodes(b, jobs, cfg)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/job")
		})
	}
}

// BenchmarkLegacyInspected is the identical episode through the seed
// engine — per-call validation, allocating state rebuilds and reservation
// copies included, exactly as the pre-refactor hot path paid them.
func BenchmarkLegacyInspected(b *testing.B) {
	jobs, cfg := benchWindow(b)
	episode := func() int {
		res, err := legacyRun(jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Inspections
	}
	episode()
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		decisions += episode()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
}
