package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// SynthConfig parameterizes the calibrated synthetic trace generator. The
// generator substitutes for the Parallel Workloads Archive logs used by the
// paper: it reproduces each log's published aggregate statistics (Table 2)
// with heavy-tailed, bursty distributions of the kind those logs exhibit.
type SynthConfig struct {
	Name     string
	MaxProcs int     // cluster size
	Jobs     int     // number of jobs to generate
	Seed     int64   // RNG seed; same seed, same trace
	Interval float64 // target mean arrival interval, seconds
	Burst    float64 // gamma shape for interarrival times; <1 is bursty, 1 is Poisson
	MeanEst  float64 // target mean estimated runtime, seconds
	Procs    float64 // target mean requested processors
	Diurnal  float64 // 0..1 strength of the day/night arrival cycle

	// RegimeStrength turns on a Markov-modulated arrival process: the
	// arrival rate is multiplied by a log-normal regime factor with this
	// log-stddev, redrawn every RegimeDwell seconds on average. Real logs
	// alternate between busy flurries and quiet stretches at the scale of
	// days; this is what produces occasional saturated windows (and high
	// slowdowns) on a cluster whose average utilization is low.
	RegimeStrength float64
	// RegimeDwell is the mean duration of one arrival regime in seconds
	// (default 2 days when RegimeStrength > 0).
	RegimeDwell float64

	// DefaultEstProb is the probability that a job's estimate is a canonical
	// wallclock request (30 min, 1 h, 4 h, 12 h, 24 h, 36 h) instead of being
	// tied to its actual runtime. Real users overwhelmingly request default
	// wallclocks far above what their jobs use; the est/run mismatch this
	// creates is what lets short-running jobs with long requests rot in an
	// SJF queue and drives bounded slowdown up even on lightly loaded
	// machines.
	DefaultEstProb float64

	// Corr is the probability that a job's size and runtime estimate are
	// drawn comonotonically (same uniform rank). Real parallel workloads
	// show a positive size-runtime correlation, which is what pushes their
	// offered load well above the product of the means.
	Corr float64
	// TargetLoad, when positive, rescales actual runtimes (capped at the
	// estimates) so the trace's offered load — actual core-seconds over
	// cluster capacity across the span — matches the target. The Table 2
	// statistics (interval, mean estimate, mean size) are unaffected.
	TargetLoad float64
}

// The synthetic generator's fixed shape, shared by the three archive-log
// traces and tracegen -custom (maxEst, users and queues by the Lublin
// trace too). Typed, so that each expression of one of them and one other
// operand rounds once, as a float64 variable would.
const (
	estSigma float64 = 1.6       // log-stddev of the log-normal runtime-estimate distribution
	maxEst   float64 = 36 * 3600 // wallclock cap for estimates, seconds
	minEst   float64 = 60        // floor for estimates, seconds
	runFrac  float64 = 1.1       // exponent a in run = est * U^a (larger a, earlier finishes)
	exactRun float64 = 0.12      // probability that a job runs exactly to its estimate
	users            = 64        // distinct users (for Slurm multifactor)
	queues           = 4         // distinct queues (for Slurm multifactor)
)

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Jobs == 0 {
		c.Jobs = 20000
	}
	if c.Burst == 0 {
		c.Burst = 0.45
	}
	return c
}

// Generate builds the synthetic trace. Submit times and estimates are
// empirically recalibrated after sampling so that the trace's measured mean
// interval and mean estimate match the targets closely (the distribution
// shape is preserved; only a scalar factor is applied).
func Generate(cfg SynthConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	procDist := newPow2Dist(cfg.MaxProcs, cfg.Procs)

	jobs := make([]Job, cfg.Jobs)
	mu := logNormalMu(cfg.MeanEst, estSigma)
	now := 0.0
	regimeRate := 1.0
	regimeUntil := 0.0
	if cfg.RegimeDwell == 0 {
		cfg.RegimeDwell = 2 * 86400
	}
	for i := range jobs {
		gap := sampleGamma(rng, cfg.Burst, cfg.Interval/cfg.Burst)
		if cfg.Diurnal > 0 {
			gap /= diurnalRate(now, cfg.Diurnal)
		}
		if cfg.RegimeStrength > 0 {
			if now >= regimeUntil {
				// clamp the multiplier so one extreme regime cannot dominate
				// the whole trace
				regimeRate = clamp(sampleLogNormal(rng, 0, cfg.RegimeStrength), 0.2, 8)
				regimeUntil = now + sampleExp(rng, cfg.RegimeDwell)
			}
			gap /= regimeRate
		}
		now += gap

		var est float64
		var procs int
		if rng.Float64() < cfg.Corr {
			// comonotone draw: big jobs run long
			u := rng.Float64()
			est = math.Exp(mu + estSigma*invNormalCDF(u))
			procs = procDist.quantile(u)
			if procs > 2 && rng.Float64() < 0.25 {
				procs -= rng.Intn(procs / 4)
			}
			if procs > cfg.MaxProcs {
				procs = cfg.MaxProcs
			}
		} else {
			est = sampleLogNormal(rng, mu, estSigma)
			procs = procDist.sample(rng, cfg.MaxProcs, 0.25)
		}
		est = clamp(est, minEst, maxEst)
		run := est
		if rng.Float64() >= exactRun {
			run = est * math.Pow(rng.Float64(), runFrac)
		}
		if run < 1 {
			run = 1
		}
		if rng.Float64() < cfg.DefaultEstProb {
			est = canonicalEst(rng, run)
		}
		jobs[i] = Job{
			ID:        i + 1,
			Submit:    now,
			Est:       est,
			Run:       run,
			Procs:     procs,
			User:      zipfInt(rng, users),
			Group:     zipfInt(rng, users/4+1),
			Queue:     zipfInt(rng, queues),
			Partition: 1,
		}
	}

	recalibrateSubmit(jobs, cfg.Interval)
	recalibrateEst(jobs, cfg.MeanEst, minEst, maxEst)
	calibrateLoad(jobs, cfg.MaxProcs, cfg.TargetLoad)

	t := &Trace{Name: cfg.Name, MaxProcs: cfg.MaxProcs, Jobs: jobs}
	t.SortBySubmit()
	return t
}

// diurnalRate is a smooth day/night arrival-rate modulation with mean ~1,
// peaking in working hours. strength 0 disables it; 1 is a strong cycle.
func diurnalRate(now, strength float64) float64 {
	const day = 86400.0
	phase := 2 * math.Pi * (math.Mod(now, day)/day - 0.58) // peak mid-afternoon
	return 1 + strength*0.8*math.Cos(phase)
}

// recalibrateSubmit rescales submit times so the measured mean interval
// matches the target exactly, preserving burstiness.
func recalibrateSubmit(jobs []Job, interval float64) {
	if len(jobs) < 2 {
		return
	}
	span := jobs[len(jobs)-1].Submit - jobs[0].Submit
	if span <= 0 {
		return
	}
	factor := interval * float64(len(jobs)-1) / span
	base := jobs[0].Submit
	for i := range jobs {
		jobs[i].Submit = (jobs[i].Submit - base) * factor
	}
}

// recalibrateEst rescales estimates (and runtimes with them) toward the
// target mean, keeping them in [lo, hi]. A few iterations converge despite
// the clamping.
func recalibrateEst(jobs []Job, meanEst, lo, hi float64) {
	for iter := 0; iter < 6; iter++ {
		var sum float64
		for i := range jobs {
			sum += jobs[i].Est
		}
		cur := sum / float64(len(jobs))
		f := meanEst / cur
		if math.Abs(f-1) < 0.002 {
			return
		}
		for i := range jobs {
			ratio := jobs[i].Run / jobs[i].Est
			jobs[i].Est = clamp(jobs[i].Est*f, lo, hi)
			jobs[i].Run = math.Max(1, jobs[i].Est*ratio)
		}
	}
}

// canonicalEst picks a canonical wallclock request at or above run,
// skewed toward over-requesting by one or two notches.
func canonicalEst(rng *rand.Rand, run float64) float64 {
	buckets := [...]float64{1800, 3600, 4 * 3600, 12 * 3600, 24 * 3600, 36 * 3600}
	lo := 0
	for lo < len(buckets) && buckets[lo] < run {
		lo++
	}
	if lo >= len(buckets) {
		return maxEst
	}
	// over-request by a geometric number of notches
	idx := lo
	for idx < len(buckets)-1 && rng.Float64() < 0.4 {
		idx++
	}
	e := buckets[idx]
	if e > maxEst {
		e = maxEst
	}
	if e < run {
		e = run
	}
	return e
}

// calibrateLoad rescales actual runtimes by a single factor (capped at each
// job's estimate) so the offered load matches target. A no-op when target
// is zero or unreachable within run <= est.
func calibrateLoad(jobs []Job, maxProcs int, target float64) {
	if target <= 0 || len(jobs) < 2 {
		return
	}
	span := jobs[len(jobs)-1].Submit - jobs[0].Submit
	if span <= 0 {
		return
	}
	capacity := span * float64(maxProcs)
	loadFor := func(f float64) float64 {
		var work float64
		for i := range jobs {
			work += math.Min(jobs[i].Run*f, jobs[i].Est) * float64(jobs[i].Procs)
		}
		return work / capacity
	}
	if loadFor(1e6) < target {
		// even run == est everywhere cannot reach the target; saturate
		for i := range jobs {
			jobs[i].Run = jobs[i].Est
		}
		return
	}
	lo, hi := 1e-3, 1e6
	for iter := 0; iter < 60; iter++ {
		mid := math.Sqrt(lo * hi)
		if loadFor(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := math.Sqrt(lo * hi)
	for i := range jobs {
		jobs[i].Run = math.Max(1, math.Min(jobs[i].Run*f, jobs[i].Est))
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// zipfInt draws an int in [1, n] with a Zipf-like (1/rank) skew, matching
// how real logs concentrate jobs on a few heavy users/queues.
func zipfInt(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 1
	}
	// inverse-CDF of 1/k over [1, n], harmonic approximation
	h := math.Log(float64(n)) + 0.5772
	u := rng.Float64() * h
	k := int(math.Exp(u))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Predefined generators calibrated to Table 2 of the paper. Each returns a
// fresh trace; vary seed to get a different realization of the same model.

// SDSCSP2Like mimics the SDSC-SP2 log: 128 processors, mean arrival interval
// 1055 s, mean estimated runtime 6687 s, mean requested processors 11.
func SDSCSP2Like(jobs int, seed int64) *Trace {
	return Generate(SynthConfig{
		Name: "SDSC-SP2", MaxProcs: 128, Jobs: jobs, Seed: seed,
		Interval: 1055, MeanEst: 6687, Procs: 11, Diurnal: 0.7,
		Corr: 0.45, TargetLoad: 0.60,
	})
}

// CTCSP2Like mimics the CTC-SP2 log: 338 processors, interval 379 s,
// mean estimate 11277 s, mean processors 11.
func CTCSP2Like(jobs int, seed int64) *Trace {
	return Generate(SynthConfig{
		Name: "CTC-SP2", MaxProcs: 338, Jobs: jobs, Seed: seed,
		Interval: 379, MeanEst: 11277, Procs: 11, Diurnal: 0.7,
		Corr: 0.30, TargetLoad: 0.51,
	})
}

// HPC2NLike mimics the HPC2N log: 240 processors, interval 538 s,
// mean estimate 17024 s, mean processors 6.
func HPC2NLike(jobs int, seed int64) *Trace {
	return Generate(SynthConfig{
		Name: "HPC2N", MaxProcs: 240, Jobs: jobs, Seed: seed,
		Interval: 538, MeanEst: 17024, Procs: 6, Diurnal: 0.6,
		Corr: 0.20, TargetLoad: 0.24, RegimeStrength: 1.3, RegimeDwell: 21600, DefaultEstProb: 0.5,
	})
}

// ByName returns one of the four paper traces ("SDSC-SP2", "CTC-SP2",
// "HPC2N", "Lublin") by name. A negative job count is an error.
func ByName(name string, jobs int, seed int64) (*Trace, error) {
	if jobs < 0 {
		return nil, fmt.Errorf("workload: jobs must be >= 0, got %d", jobs)
	}
	switch name {
	case "SDSC-SP2":
		return SDSCSP2Like(jobs, seed), nil
	case "CTC-SP2":
		return CTCSP2Like(jobs, seed), nil
	case "HPC2N":
		return HPC2NLike(jobs, seed), nil
	case "Lublin":
		return LublinTrace(jobs, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown trace %q", name)
}

// PaperTraces lists the trace names of Table 2 in paper order.
func PaperTraces() []string { return []string{"SDSC-SP2", "CTC-SP2", "HPC2N", "Lublin"} }
