package main

import (
	"sync"
	"time"
)

// The ladder's latency limit and pass rule: a step passes when the p99 over
// all its requests is within the limit, at least 99 % of the offered
// requests completed without failing, and the backlog left when the
// schedule ends drains within the drain limit.
const (
	ladderP99Limit   = 50 * time.Millisecond
	ladderDrainLimit = 500 * time.Millisecond
	ladderMinDone    = 0.99
	// openLoopWorkers is how many requests one connection may have in
	// flight; arrivals beyond that queue, and the queueing is in their
	// latency because it is timed from the due time.
	openLoopWorkers = 16
)

// olRequest is one scheduled arrival; kind indexes the caller's operation
// kinds (0 = GET, 1 = SET on kv-mixed).
type olRequest struct {
	kind int
	key  uint64
}

// olResult is what one open-loop step observed.
type olResult struct {
	offered   int
	completed int             // finished without error
	lat       [][]sample      // per kind, timed from the due time
	late      []time.Duration // send time minus due time: how late the generator ran
	drain     time.Duration   // from the end of the schedule to the last completion
	start     time.Time       // when request 0 was due
}

// openLoop issues reqs on a fixed schedule, one every 1/rate seconds,
// regardless of how fast they complete.  Request i goes to lane i%lanes (a
// lane is a connection); do performs it and reports success.  Each request
// is timed from when it was due, so a stall delays — and is charged to —
// every request scheduled behind it.
func openLoop(reqs []olRequest, rate float64, lanes, kinds int, do func(lane int, r olRequest, due time.Time) bool) olResult {
	type job struct {
		r   olRequest
		due time.Time
	}
	res := olResult{offered: len(reqs), lat: make([][]sample, kinds)}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	queues := make([]chan job, lanes)
	for l := range queues {
		// Sized to the whole step, so the generator never blocks on a
		// slow server.
		queues[l] = make(chan job, len(reqs)/lanes+1)
		for w := 0; w < openLoopWorkers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for j := range queues[lane] {
					late := time.Since(j.due)
					ok := do(lane, j.r, j.due)
					end := time.Now()
					mu.Lock()
					res.late = append(res.late, late)
					if ok {
						res.completed++
						res.lat[j.r.kind] = append(res.lat[j.r.kind], sample{at: end, lat: end.Sub(j.due)})
					}
					mu.Unlock()
				}
			}(l)
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	res.start = start
	for i, r := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queues[i%lanes] <- job{r: r, due: due}
	}
	end := start.Add(time.Duration(len(reqs)) * interval)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if res.drain = time.Since(end); res.drain < 0 {
		res.drain = 0
	}
	return res
}

// all returns the samples of every kind in one slice.
func (r olResult) all() []sample {
	var out []sample
	for _, l := range r.lat {
		out = append(out, l...)
	}
	return out
}

// passes applies the ladder rule.  Failed and refused requests have no
// latency sample; they count against the completion share.
func (r olResult) passes() bool {
	if float64(r.completed) < ladderMinDone*float64(r.offered) || r.drain > ladderDrainLimit {
		return false
	}
	return summarize(latencies(r.all())).p99 <= ladderP99Limit
}

// ladderRates are the offered rates of the kv-mixed ladder, requests per
// second over both connections.
var ladderRates = []float64{1000, 2000, 4000, 8000, 16000, 32000}

// climb runs step at each rate in turn, stops at the first that fails and
// returns the highest rate that passed (0 when the first one fails).
func climb(rates []float64, step func(rate float64) olResult) float64 {
	var best float64
	for _, rate := range rates {
		if !step(rate).passes() {
			break
		}
		best = rate
	}
	return best
}
