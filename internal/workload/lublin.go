package workload

import (
	"math"
	"math/rand"
)

// Lublin-Feitelson synthetic workload model (Lublin & Feitelson, JPDC 2003),
// the generative model behind the "Lublin" trace in Table 2 of the paper.
//
// The model has three parts:
//
//   - Job size (processors): with probability lublinSerialProb the job is
//     serial; otherwise log2(size) is drawn from a two-stage uniform
//     distribution over [uLow, uMed] (probability lublinUProb) or
//     [uMed, uHi], and with probability lublinPow2Prob the size is rounded
//     to the nearest power of two.
//   - Runtime: log runtime is drawn from a hyper-Gamma distribution whose
//     mixing probability depends linearly on the job size
//     (p = pA*size + pB), so bigger jobs skew longer.
//   - Arrivals: log interarrival time is Gamma-distributed, modulated by a
//     daily cycle.
//
// After sampling, estimates and intervals are linearly recalibrated to hit
// the aggregate statistics the paper reports for its Lublin trace (cluster
// 256, interval 771 s, mean estimate 4862 s, mean size 22); the calibration
// is a single scalar per quantity, so the characteristic bimodal runtime and
// bursty arrival shapes of the model are preserved.
const (
	lublinSerialProb = 0.24  // probability of a one-processor job
	lublinPow2Prob   = 0.625 // probability of rounding size to a power of two
	lublinUProb      = 0.86  // probability of the low range in the two-stage uniform
	lublinULow       = 0.8   // log2 lower bound of job sizes
	lublinUMedOff    = 2.5   // uMed = uHi - lublinUMedOff

	// hyper-Gamma log-runtime parameters
	lublinA1 = 4.2
	lublinB1 = 0.94
	lublinA2 = 312.0
	lublinB2 = 0.03
	lublinPA = -0.0054
	lublinPB = 0.78

	// Gamma log-interarrival parameters
	lublinAArr = 10.23
	lublinBArr = 0.4871

	// The paper's Lublin trace (Table 2): the cluster, the calibration
	// targets, the daily-cycle strength and the mean over-estimation
	// factor (est = run * (1 + Exp(mean lublinOverest-1))).
	lublinMaxProcs         = 256
	lublinInterval float64 = 771  // mean interarrival after calibration (s)
	lublinMeanEst  float64 = 4862 // mean estimate after calibration (s)
	lublinMinEst   float64 = 30   // estimate floor (s)
	lublinDiurnal  float64 = 0.8
	lublinOverest  float64 = 1.7
)

// LublinTrace returns the paper's "Lublin" trace from the Lublin-Feitelson
// model: 256 processors, interval 771 s, mean estimate 4862 s, mean size
// 22. jobs 0 means 20000, as for the other generators.
func LublinTrace(jobs int, seed int64) *Trace {
	if jobs == 0 {
		jobs = 20000
	}
	rng := rand.New(rand.NewSource(seed))
	uHi := math.Log2(float64(lublinMaxProcs))
	uMed := uHi - lublinUMedOff

	js := make([]Job, jobs)
	now := 0.0
	for i := range js {
		gap := math.Exp(sampleGamma(rng, lublinAArr, lublinBArr))
		gap /= diurnalRate(now, lublinDiurnal)
		now += gap

		size := lublinSize(rng, lublinMaxProcs, uMed, uHi)
		run := lublinRuntime(rng, size)
		if run < 1 {
			run = 1
		}
		// Users over-estimate.
		est := run * (1 + rng.ExpFloat64()*(lublinOverest-1))
		est = clamp(est, lublinMinEst, maxEst)
		if run > est {
			run = est
		}
		js[i] = Job{
			ID: i + 1, Submit: now, Run: run, Est: est, Procs: size,
			User: zipfInt(rng, users), Group: zipfInt(rng, 16), Queue: zipfInt(rng, queues), Partition: 1,
		}
	}

	recalibrateSubmit(js, lublinInterval)
	recalibrateEst(js, lublinMeanEst, lublinMinEst, maxEst)

	t := &Trace{Name: "Lublin", MaxProcs: lublinMaxProcs, Jobs: js}
	t.SortBySubmit()
	return t
}

// lublinSize samples the processor count.
func lublinSize(rng *rand.Rand, maxProcs int, uMed, uHi float64) int {
	if rng.Float64() < lublinSerialProb {
		return 1
	}
	var u float64
	if rng.Float64() < lublinUProb {
		u = lublinULow + rng.Float64()*(uMed-lublinULow)
	} else {
		u = uMed + rng.Float64()*(uHi-uMed)
	}
	size := math.Exp2(u)
	if rng.Float64() < lublinPow2Prob {
		size = math.Exp2(math.Round(u))
	}
	n := int(math.Round(size))
	if n < 1 {
		n = 1
	}
	if n > maxProcs {
		n = maxProcs
	}
	return n
}

// lublinRuntime samples the actual runtime in seconds for a job of the given
// size: exp of a hyper-Gamma draw whose mixing probability depends on size.
func lublinRuntime(rng *rand.Rand, size int) float64 {
	p := lublinPA*float64(size) + lublinPB
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	var x float64
	if rng.Float64() < p {
		x = sampleGamma(rng, lublinA1, lublinB1)
	} else {
		x = sampleGamma(rng, lublinA2, lublinB2)
	}
	// cap the log draw: e^13 ~ 4.9 days, beyond any wallclock limit here
	if x > 13 {
		x = 13
	}
	return math.Exp(x)
}
