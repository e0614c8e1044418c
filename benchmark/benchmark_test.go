package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/tpcc"
)

// smoke shrinks every size so that all four workloads run in both passes
// within seconds, and moves to the repository root, where the contract is.
func smoke(t *testing.T) *bench {
	t.Helper()
	full := sz
	t.Cleanup(func() { sz = full })
	sz = scale{
		reps: 2,
		tpcc: tpcc.Config{Warehouses: 1, DistrictsPerWarehouse: 2, CustomersPerDistrict: 30,
			Items: 100, InitialOrdersPerDistrict: 30},
		tpccWarmup: 20, tpccTail: 20, tpccPostCrash: 20,
		kvKeys: 1500, kvWarmup: 20 * time.Millisecond,
		drives: 0.01,
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	return &bench{spec: sp, seed: 7, seconds: 0.4, tmp: tmp, traceOut: filepath.Join(tmp, "trace.json"), traces: map[string]*tracer{}}
}

// Every workload must emit exactly the names the contract lists, with the
// contract's units, in both passes, and fail no operation.
func TestSmokeEmitsTheContract(t *testing.T) {
	b := smoke(t)
	if len(b.spec.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, program has %d", len(b.spec.Workloads), len(workloads))
	}
	for _, wl := range b.spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := b.pass(wl.Name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			want := b.spec.EndToEnd
			if traced {
				want = b.spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, contract lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, contract says %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", wl.Name, m.Name, got.Value)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
	if err := b.writeTraces(); err != nil {
		t.Fatal(err)
	}
	var spans []struct{ Workload, Layer string }
	raw, err := os.ReadFile(b.traceOut)
	if err == nil {
		err = json.Unmarshal(raw, &spans)
	}
	if err != nil {
		t.Fatalf("reading the spans back: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Workload+"/"+s.Layer] = true
	}
	for _, want := range []string{"tpcc-miss/device", "tpcc-miss/tpcc", "kv-get/filedev", "kv-get/client", "kv-mixed/client", "kv-insert/phase"} {
		if !seen[want] {
			t.Errorf("trace file has no %s span", want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {90, 0.5}, {100, 0.9}, {190, 0.9}, {200, 0.95}, {950, 0.95}, {1000, 0.99}, {100000, 0.99}} {
		if got := supported(0.99, c.n); got != c.want {
			t.Errorf("supported(0.99, %d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supported(0.9999, 100000); got != 0.9999 {
		t.Errorf("100 000 samples carry p99.99, got %v", got)
	}
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(1000-i) * time.Microsecond // descending: summarize sorts
	}
	s := summarize(d)
	if s.n != 1000 || s.p50 != 500*time.Microsecond || s.p99 != 990*time.Microsecond {
		t.Errorf("summarize: n %d p50 %v p99 %v", s.n, s.p50, s.p99)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// A server that serves one request at a time, each taking 2 ms, offered
// 1 000 requests a second: latency must be timed from the due time, so it
// grows with the backlog, and the generator itself must not run late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, service = 100, 2 * time.Millisecond
	var server sync.Mutex
	reqs := make([]olRequest, n)
	res := openLoop(reqs, 1000, 1, 1, func(int, olRequest, time.Time) bool {
		server.Lock()
		time.Sleep(service)
		server.Unlock()
		return true
	})
	if res.offered != n || res.completed != n || len(res.lat[0]) != n {
		t.Fatalf("offered %d completed %d samples %d", res.offered, res.completed, len(res.lat[0]))
	}
	// The schedule spans 100 ms and the work 200 ms: the last request
	// waits about 100 ms although its own service takes 2.
	sum := summarize(latencies(res.all()))
	if sum.p50 < 20*time.Millisecond {
		t.Errorf("median latency %v: queueing behind the slow server is not counted", sum.p50)
	}
	if res.drain < 50*time.Millisecond {
		t.Errorf("backlog drained in %v, expected about 100 ms", res.drain)
	}
	// Sixteen workers on the lane, all blocked on the server: from the
	// seventeenth request on the send itself is late, and that is reported.
	if late := summarize(res.late).p99; late < 10*time.Millisecond {
		t.Errorf("p99 generator lateness %v, expected tens of ms", late)
	}
	if res.passes() {
		t.Error("a step with a 100 ms backlog... passes only if p99 <= 50 ms; this one must fail")
	}
}

func TestLadder(t *testing.T) {
	ok := func(lat time.Duration, completed int, drain time.Duration) olResult {
		d := make([]sample, completed)
		for i := range d {
			d[i].lat = lat
		}
		return olResult{offered: 1000, completed: completed, lat: [][]sample{d}, drain: drain}
	}
	for name, c := range map[string]struct {
		r    olResult
		want bool
	}{
		"fast":       {ok(time.Millisecond, 1000, 0), true},
		"slow p99":   {ok(60*time.Millisecond, 1000, 0), false},
		"1% lost":    {ok(time.Millisecond, 990, 0), true},
		"2% lost":    {ok(time.Millisecond, 980, 0), false},
		"backlogged": {ok(time.Millisecond, 1000, 600*time.Millisecond), false},
	} {
		if got := c.r.passes(); got != c.want {
			t.Errorf("%s: passes = %v, want %v", name, got, c.want)
		}
	}
	var tried []float64
	best := climb(ladderRates, func(rate float64) olResult {
		tried = append(tried, rate)
		if rate >= 8000 {
			return ok(80*time.Millisecond, 1000, 0)
		}
		return ok(time.Millisecond, 1000, 0)
	})
	if best != 4000 || len(tried) != 4 {
		t.Errorf("climb: best %v after trying %v; want 4000 and a stop at the first failure", best, tried)
	}
}

// A traced device has a durability barrier exactly when the device under it
// has one, and forwards it.
func TestTracedevForwardsSync(t *testing.T) {
	tr := newTracer()
	sim := wrapTraced(face.NewSSD("flash", 16), "device", tr)
	if _, ok := sim.(device.Syncer); ok {
		t.Error("a traced simulated device must not acquire a Sync method")
	}
	fd, err := filedev.Open("log", filepath.Join(t.TempDir(), "log"), 16, filedev.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	traced := wrapTraced(fd, "filedev", tr)
	s, ok := traced.(device.Syncer)
	if !ok {
		t.Fatal("a traced file device lost its Sync method")
	}
	buf := make([]byte, device.BlockSize)
	if err := traced.WriteAt(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if fd.Syncs() != 1 || syncsOf(traced) != 1 {
		t.Errorf("Sync not forwarded: device counted %d", fd.Syncs())
	}
	if traced.Stats().Writes() != 1 || traced.NumBlocks() != 16 {
		t.Error("statistics and size must read through the wrapper")
	}
	var names []string
	for _, sp := range tr.spans {
		names = append(names, sp.Name)
	}
	if len(names) != 2 || names[0] != "log.write" || names[1] != "log.sync" {
		t.Errorf("spans %v, want [log.write log.sync]", names)
	}
	if wrapTraced(fd, "filedev", nil) != device.Dev(fd) {
		t.Error("without a tracer the device itself must be returned")
	}
}

func TestLosedevDropsUnsyncedWrites(t *testing.T) {
	fd, err := filedev.Open("data", filepath.Join(t.TempDir(), "data"), 16, filedev.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	block := func(b byte) []byte {
		p := make([]byte, device.BlockSize)
		for i := range p {
			p[i] = b
		}
		return p
	}
	ld := newLosedev(fd)
	got := make([]byte, device.BlockSize)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ld.WriteAt(1, block('a')))
	must(ld.Sync())
	must(ld.WriteAt(1, block('b')))
	must(ld.WriteRun(2, [][]byte{block('c'), block('d')}))
	// Until the power goes, reads see the volatile writes...
	must(ld.ReadAt(1, got))
	if got[0] != 'b' {
		t.Errorf("read of an unsynced block returned %q", got[0])
	}
	must(ld.ReadRun(2, 2, func(i int, p []byte) error {
		if p[0] != "cd"[i] {
			t.Errorf("ReadRun block %d returned %q", i, p[0])
		}
		return nil
	}))
	// ...and the file underneath does not.
	must(fd.ReadAt(1, got))
	if got[0] != 'a' {
		t.Errorf("unsynced write reached the file: %q", got[0])
	}
	if dropped := ld.PowerOff(); dropped != 3 {
		t.Errorf("PowerOff dropped %d blocks, want 3", dropped)
	}
	must(fd.ReadAt(1, got))
	if got[0] != 'a' {
		t.Errorf("after the power cut block 1 holds %q, want the synced 'a'", got[0])
	}
	must(fd.ReadAt(2, got))
	if got[0] != 0 {
		t.Errorf("after the power cut block 2 holds %q, want zeros", got[0])
	}
	if ld.WriteAt(1, block('e')) == nil || ld.Sync() == nil || ld.ReadAt(1, got) == nil {
		t.Error("everything must fail once the power is off")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "phase", Start: 0, End: 100},
		{ID: 2, Layer: "client", Start: 10, End: 60, Parent: 1},
		{ID: 3, Layer: "filedev", Start: 20, End: 30, Parent: 2},
		{ID: 4, Layer: "filedev", Start: 25, End: 40, Parent: 2}, // overlaps span 3
		{ID: 5, Layer: "client", Start: 70, End: 90, Parent: 1},
	}
	got := selfTimes(spans)
	// phase: 100 - (50 + 20); client: (50 - 20 covered) + 20; filedev: 10 + 15.
	for layer, want := range map[string]time.Duration{"phase": 30, "client": 50, "filedev": 25} {
		if got[layer] != want {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	ser := func(v ...float64) *series {
		s := &series{Values: v}
		s.Q1, s.Median, s.Q3 = quartiles(v)
		return s
	}
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for name, c := range map[string]struct {
		m    metricSpec
		a, b *series
		want string
	}{
		"slower":           {lower, ser(10, 10, 10), ser(12, 12, 12), "worse"},
		"faster":           {lower, ser(10, 10, 10), ser(8, 8, 8), "better"},
		"within the bound": {lower, ser(10, 10, 10), ser(10.5, 10.5, 10.5), "same"},
		"less throughput":  {higher, ser(100, 100, 100), ser(80, 80, 80), "worse"},
		"more throughput":  {higher, ser(100, 100, 100), ser(120, 120, 120), "better"},
		"noisy":            {lower, ser(8, 10, 12), ser(20, 20, 20), "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", name, got, c.want)
		}
	}
}

// The final-value check of kv-mixed accepts any order of overlapping SETs
// and rejects a value that an acknowledged later SET should have replaced.
func TestMixedFinalValue(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &mixedState{conns: make([]*client.Client, 2), hist: map[uint64][]mixedWrite{
		4: {
			{issued: at(0), done: at(10), acked: true},
			{issued: at(5), done: at(15), acked: true},  // overlaps the first
			{issued: at(20), done: at(30), acked: true}, // after both
		},
		6: {{issued: at(0), done: at(10), acked: false}},
	}}
	if why := s.final(4, makeValue(4, 1, 3)); why != "" {
		t.Errorf("last SET rejected: %s", why)
	}
	if why := s.final(4, makeValue(4, 1, 1)); why == "" {
		t.Error("SET 1 completed before SET 3 was issued; finding it at the end means SET 3 was lost")
	}
	if why := s.final(4, makeValue(4, 0, 0)); why == "" {
		t.Error("the preloaded value cannot survive an acknowledged SET")
	}
	if why := s.final(4, makeValue(4, 1, 9)); why == "" {
		t.Error("a sequence never written must be rejected")
	}
	if why := s.final(4, makeValue(5, 1, 3)); why == "" {
		t.Error("another key's value must be rejected")
	}
	// An unacknowledged SET may or may not have been applied.
	if why := s.final(6, makeValue(6, 0, 0)); why != "" {
		t.Errorf("preloaded value after an unacknowledged SET rejected: %s", why)
	}
	if why := s.final(6, makeValue(6, 1, 1)); why != "" {
		t.Errorf("unacknowledged SET's value rejected: %s", why)
	}
}

// A window is cut into equal stretches; a disturbed stretch must not move
// the value the run reports.
func TestSlicesAndSteady(t *testing.T) {
	start := time.Now()
	var samples []sample
	for i := 0; i < 5000; i++ { // one operation a millisecond for five seconds
		lat := 100 * time.Microsecond
		if i >= 2000 && i < 3000 {
			lat = 5 * time.Millisecond // the third second is disturbed
		}
		samples = append(samples, sample{at: start.Add(time.Duration(i) * time.Millisecond), lat: lat})
	}
	slices := sliceWindow(samples, start, 5*time.Second, nil)
	if len(slices) != 5 {
		t.Fatalf("%d slices, want 5", len(slices))
	}
	for i, sl := range slices {
		wantLat := 100 * time.Microsecond
		if i == 2 {
			wantLat = 5 * time.Millisecond
		}
		if sl.p50 != wantLat || sl.p99 != wantLat || math.Abs(sl.opsPerS-1000) > 1 {
			t.Errorf("slice %d: %+v", i, sl)
		}
	}
	if got := quarterMark([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6}, false); got != 3 {
		t.Errorf("quarterMark of 1..9 = %v, want 3", got)
	}
	if got := quarterMark([]float64{2, 1}, true); got != 2 {
		t.Errorf("quarterMark of two from the top = %v, want 2", got)
	}
	p99 := func(s sliceStat) float64 { return ms(s.p99) }
	if got := steady(slices, false, p99); got != 0.1 {
		t.Errorf("steady p99 = %v ms, want the undisturbed 0.1", got)
	}
	if n := len(sliceWindow(samples[:1500], start, 1500*time.Millisecond, nil)); n != 1 {
		t.Errorf("1 500 samples cut into %d slices; a slice needs 1 000 for its p99", n)
	}

	// Three of five slices slow because the processors were taken away: the
	// two that kept them are the ones reported from.
	log := &stealLog{}
	for i, stolenMS := range []int{0, 300, 300, 300, 600, 900} { // readings at 0 s .. 5 s
		log.at = append(log.at, start.Add(time.Duration(i)*time.Second))
		log.stolen = append(log.stolen, time.Duration(stolenMS)*time.Millisecond)
	}
	for i := range samples {
		samples[i].lat = 5 * time.Millisecond
		if i >= 1000 && i < 3000 {
			samples[i].lat = 100 * time.Microsecond
		}
	}
	slices = sliceWindow(samples, start, 5*time.Second, log)
	if slices[0].stolen != 300*time.Millisecond || slices[1].stolen != 0 || slices[2].stolen != 0 {
		t.Errorf("stolen time per slice: %v %v %v", slices[0].stolen, slices[1].stolen, slices[2].stolen)
	}
	if got := steady(slices, false, p99); got != 0.1 {
		t.Errorf("steady p99 = %v ms, want the 0.1 of the slices nothing was stolen from", got)
	}
}
