package sim

import "sort"

// profile is a step function of free processors over future time, built
// from running-job estimated completions and queued-job reservations. It is
// the planning structure behind conservative backfilling, where every
// waiting job holds a reservation and no job may start if it would delay
// any earlier-priority reservation.
type profile struct {
	times []float64 // breakpoints, ascending; times[0] is "now"
	free  []int     // free processors in [times[i], times[i+1])
}

// newProfile builds the availability profile at time now from the running
// set. A running job whose estimate already elapsed is treated as releasing
// immediately (it can finish any moment).
func newProfile(now float64, freeNow int, running []runningJob) *profile {
	type rel struct {
		t float64
		p int
	}
	rels := make([]rel, 0, len(running))
	for _, r := range running {
		t := r.estEnd
		if t < now {
			t = now
		}
		rels = append(rels, rel{t, r.procs})
	}
	sort.Slice(rels, func(i, k int) bool { return rels[i].t < rels[k].t })
	p := &profile{times: []float64{now}, free: []int{freeNow}}
	for _, r := range rels {
		last := len(p.times) - 1
		if r.t == p.times[last] {
			p.free[last] += r.p
			continue
		}
		p.times = append(p.times, r.t)
		p.free = append(p.free, p.free[last]+r.p)
	}
	return p
}

// earliestStart returns the earliest time at or after now at which procs
// processors stay free for duration seconds.
func (p *profile) earliestStart(procs int, duration float64) float64 {
	for i := 0; i < len(p.times); i++ {
		if p.free[i] < procs {
			continue
		}
		start := p.times[i]
		end := start + duration
		ok := true
		for k := i; k < len(p.times) && p.times[k] < end; k++ {
			if p.free[k] < procs {
				ok = false
				break
			}
		}
		if ok {
			return start
		}
	}
	// beyond the last breakpoint everything is free
	return p.times[len(p.times)-1]
}

// reserve subtracts procs processors over [start, start+duration),
// inserting breakpoints as needed.
func (p *profile) reserve(start float64, procs int, duration float64) {
	end := start + duration
	p.insertBreak(start)
	p.insertBreak(end)
	for i := range p.times {
		if p.times[i] >= start && p.times[i] < end {
			p.free[i] -= procs
		}
	}
}

// insertBreak ensures t is a breakpoint.
func (p *profile) insertBreak(t float64) {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return
	}
	if i == 0 {
		// t before "now": clamp to now (already a breakpoint)
		return
	}
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = p.free[i-1]
}

// backfillConservative plans reservations for every waiting job in base-
// policy priority order (the reserved head job first) and starts those
// whose earliest feasible time is now. Unlike EASY, no started job can
// delay ANY earlier-priority waiting job's planned start.
func (s *Env) backfillConservative(reservedID int) {
	for {
		started := s.conservativePass(reservedID)
		if !started {
			return
		}
	}
}

// conservativePass runs one planning pass; reports whether any job started.
func (s *Env) conservativePass(reservedID int) bool {
	p := newProfile(s.now, s.free, s.running)

	// Order: the reserved job first, then remaining queue by policy score.
	order := make([]int, 0, len(s.queue))
	ri := s.indexOf(reservedID)
	order = append(order, ri)
	type scored struct {
		idx   int
		score float64
		id    int
	}
	rest := make([]scored, 0, len(s.queue)-1)
	for i := range s.queue {
		if i == ri {
			continue
		}
		rest = append(rest, scored{i, s.score(i), s.queue[i].job.ID})
	}
	sort.Slice(rest, func(a, b int) bool {
		if rest[a].score != rest[b].score {
			return rest[a].score < rest[b].score
		}
		return rest[a].id < rest[b].id
	})
	for _, r := range rest {
		order = append(order, r.idx)
	}

	for _, idx := range order {
		j := &s.queue[idx].job
		start := p.earliestStart(j.Procs, j.Est)
		if start <= s.now && j.Procs <= s.free && j.ID != reservedID {
			s.emitBackfill(idx)
			s.startJob(idx)
			s.out.Backfills++
			return true // queue indices shifted; re-plan
		}
		p.reserve(start, j.Procs, j.Est)
	}
	return false
}
