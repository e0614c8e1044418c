package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/reprolab/face/internal/server/client"
)

// kv-mixed traffic: 80 % GET, 20 % SET of existing keys, Zipf 1.1 (the hot
// set fits the DRAM buffer), over two connections.
const (
	mixedSetShare = 0.2
	mixedZipf     = 1.1
	// mixedRate is the offered rate of the end-to-end step: well under the
	// knee, so its latencies are service plus the queueing one connection's
	// SETs impose on the GETs behind them.
	mixedRate = 2000
	// mixedOpenShare of the window is the open-loop step; the rest is the
	// closed-loop saturation that gives ops_per_s.
	mixedOpenShare = 0.75
	// mixedCallers closed-loop callers per connection saturate the server.
	mixedCallers = 8
	// ladderStepShare of one repetition's seconds is one ladder step.
	ladderStepShare = 0.3
)

const (
	kindGet = iota
	kindSet
	mixedKinds
)

// mixedWrite is one SET as the client saw it; the SETs of a key are
// numbered from 1 in the order they were issued.
type mixedWrite struct {
	issued, done time.Time
	acked        bool
}

// mixedState is the writers' bookkeeping: every SET issued, by key, so the
// final values can be checked.
type mixedState struct {
	r     *kvRep
	conns []*client.Client

	mu   sync.Mutex
	hist map[uint64][]mixedWrite
}

// mixedGen draws the requests of the mixed stream.
type mixedGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newMixedGen(seed int64) *mixedGen {
	rng := rand.New(rand.NewSource(seed))
	return &mixedGen{rng: rng, zipf: rand.NewZipf(rng, mixedZipf, 1, uint64(sz.kvKeys-1))}
}

// next draws one request for the given lane.  Writers partition the keys by
// connection: a SET's key is moved to the nearest key the lane owns.
func (g *mixedGen) next(lane int) olRequest {
	key := g.zipf.Uint64()
	if g.rng.Float64() >= mixedSetShare {
		return olRequest{kind: kindGet, key: key}
	}
	key = key - key%kvClients + uint64(lane)
	if key >= uint64(sz.kvKeys) {
		key -= kvClients
	}
	return olRequest{kind: kindSet, key: key}
}

// stream draws n requests; request i travels on lane i%kvClients.
func (g *mixedGen) stream(n int) []olRequest {
	reqs := make([]olRequest, n)
	for i := range reqs {
		reqs[i] = g.next(i % kvClients)
	}
	return reqs
}

// do performs one request on its lane's connection.  BUSY (a deadlock
// victim or an admission refusal) is retried inside the timed operation;
// anything else that goes wrong is a failed operation.
func (s *mixedState) do(lane int, req olRequest, due time.Time) bool {
	c := s.conns[lane]
	if req.kind == kindGet {
		var ok bool
		s.r.cfg.tr.request("get", "client", due, false, func() { ok = s.r.get(c, req.key) })
		return ok
	}
	s.mu.Lock()
	s.hist[req.key] = append(s.hist[req.key], mixedWrite{issued: time.Now()})
	seq := uint64(len(s.hist[req.key]))
	s.mu.Unlock()
	val := makeValue(req.key, uint8(1+lane), seq)
	rng := rand.New(rand.NewSource(int64(req.key)<<20 + int64(seq)))
	var err error
	s.r.cfg.tr.request("set", "client", due, false, func() {
		err = retryBusy(rng, &s.r.retries, func() error { return c.Set(kvNamespace, req.key, val) })
	})
	s.mu.Lock()
	w := &s.hist[req.key][seq-1]
	w.done, w.acked = time.Now(), err == nil
	s.mu.Unlock()
	if err != nil {
		s.r.ck.fail("SET %d: %v", req.key, err)
		return false
	}
	s.r.ck.ok(1)
	return true
}

// final accepts the value a key may hold once all writers have stopped: a
// value some SET of that key wrote, provided no acknowledged SET was issued
// after that one had completed (that later SET would have been lost).
func (s *mixedState) final(key uint64, val []byte) string {
	writer, seq, ok := checkValue(key, val)
	if !ok {
		return "value is not one any writer produced"
	}
	hist := s.hist[key]
	if seq == 0 && writer == 0 {
		for i, w := range hist {
			if w.acked {
				return fmt.Sprintf("preloaded value survived acknowledged SET %d", i+1)
			}
		}
		return ""
	}
	if seq > uint64(len(hist)) || writer != uint8(1+key%uint64(len(s.conns))) {
		return fmt.Sprintf("value of writer %d, sequence %d was never written", writer, seq)
	}
	found := hist[seq-1]
	for i, w := range hist {
		if w.acked && w.issued.After(found.done) {
			return fmt.Sprintf("acknowledged SET %d was lost to earlier SET %d", i+1, seq)
		}
	}
	return ""
}

// saturate runs mixedCallers closed-loop callers per connection on the
// mixed stream for d and returns when each completed request finished.
func (s *mixedState) saturate(seed int64, d time.Duration) []sample {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done []sample
	)
	deadline := time.Now().Add(d)
	for lane := range s.conns {
		for caller := 0; caller < mixedCallers; caller++ {
			wg.Add(1)
			go func(lane, caller int) {
				defer wg.Done()
				gen := newMixedGen(seed + int64(lane*mixedCallers+caller)*7919)
				var mine []sample
				for time.Now().Before(deadline) {
					start := time.Now()
					if s.do(lane, gen.next(lane), time.Time{}) {
						end := time.Now()
						mine = append(mine, sample{at: end, lat: end.Sub(start)})
					}
				}
				mu.Lock()
				done = append(done, mine...)
				mu.Unlock()
			}(lane, caller)
		}
	}
	wg.Wait()
	return done
}

// runKVMixed is one repetition of kv-mixed: an open-loop step at a fixed
// rate under the knee (the latencies), a closed-loop saturation (the
// throughput), then crash, restart and a check of every written key.  The
// traced pass also climbs the rate ladder, untraced, for client.max_rate_ok.
func runKVMixed(cfg repConfig, ck *checks) (repResult, error) {
	return runKV(cfg, ck, func(r *kvRep) error {
		conns, closeAll, err := r.env.dialAll(kvClients)
		if err != nil {
			return err
		}
		s := &mixedState{r: r, conns: conns, hist: make(map[uint64][]mixedWrite)}
		gen := newMixedGen(cfg.seed + 2)

		endPhase := cfg.tr.beginPhase("measure")
		win := openWindow(r.env.db)
		openFor := cfg.seconds * mixedOpenShare
		step := openLoop(gen.stream(int(mixedRate*openFor)), mixedRate, kvClients, mixedKinds, s.do)
		satStart := time.Now()
		sat := s.saturate(cfg.seed+4, time.Duration((cfg.seconds-openFor)*float64(time.Second)))
		satWall := time.Since(satStart)
		win.close(r.env.db)
		endPhase()

		// Latency from the slices of the open-loop step, throughput from
		// those of the saturation.
		r.res.lat = sliceWindow(step.all(), step.start, time.Duration(openFor*float64(time.Second)), win.steal)
		r.res.rate = sliceWindow(sat, satStart, satWall, win.steal)
		r.res.e2e["ops_per_s"] = float64(len(sat)) / satWall.Seconds()
		r.serveMetrics(win, step.completed+len(sat), step.all())
		l := r.res.layer
		get, set := summarize(latencies(step.lat[kindGet])), summarize(latencies(step.lat[kindSet]))
		l["client.get_p50_ms"], l["client.get_p99_ms"] = ms(get.p50), ms(get.p99)
		l["client.set_p50_ms"], l["client.set_p99_ms"] = ms(set.p50), ms(set.p99)
		l["client.gen_late_p99_ms"] = ms(summarize(step.late).p99)

		if cfg.ladder {
			stepLen := cfg.seconds * ladderStepShare
			l["client.max_rate_ok"] = climb(ladderRates, func(rate float64) olResult {
				return openLoop(gen.stream(int(rate*stepLen)), rate, kvClients, mixedKinds, s.do)
			})
		}
		closeAll()

		// Every preloaded key is read back after the restart; SETs overwrite
		// preloaded keys only, so that covers every written key.
		return r.restart(sz.kvKeys, s.final)
	})
}
