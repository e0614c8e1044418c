package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
)

// buildQuickGolden builds one tiny golden image shared by the package tests
// (loading is the expensive part).
var sharedGolden *Golden

func quickGolden(t *testing.T) *Golden {
	t.Helper()
	if sharedGolden != nil {
		return sharedGolden
	}
	g, err := BuildGolden(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	sharedGolden = g
	return g
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	d := DefaultOptions()
	if o.Warehouses != d.Warehouses || o.BufferFraction != d.BufferFraction || len(o.CacheFractions) == 0 {
		t.Fatalf("normalize produced %+v", o)
	}
	q := QuickOptions()
	if q.MeasureTx >= d.MeasureTx {
		t.Fatal("QuickOptions should be smaller than DefaultOptions")
	}
	if len(ComparedPolicies()) != 4 {
		t.Fatal("expected four compared policies")
	}
}

func TestTable1Static(t *testing.T) {
	rows := Table1DeviceCharacteristics()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Samsung 470") || !strings.Contains(text, "RAID-0") {
		t.Fatalf("Table 1 text missing devices:\n%s", text)
	}
}

func TestGoldenBuildAndSingleRun(t *testing.T) {
	g := quickGolden(t)
	if g.DBPages() < 500 {
		t.Fatalf("golden database suspiciously small: %d pages", g.DBPages())
	}
	if g.Options().Warehouses != 1 {
		t.Fatal("options not retained")
	}
	res, err := g.Run(RunSpec{Policy: engine.PolicyFaCEGSC, CacheFraction: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TpmC <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.FlashHitRate <= 0 || res.FlashHitRate > 1 {
		t.Fatalf("flash hit rate out of range: %v", res.FlashHitRate)
	}
	if res.CacheFrames <= 0 || res.BufferPages <= 0 {
		t.Fatalf("sizing not reported: %+v", res)
	}
	if res.Label != "face+gsc" {
		t.Fatalf("label = %q", res.Label)
	}
}

func TestRunSpecLabels(t *testing.T) {
	if (RunSpec{Policy: engine.PolicyNone}).label() != "HDD-only" {
		t.Fatal("HDD-only label")
	}
	if (RunSpec{Policy: engine.PolicyNone, DataOnFlash: true}).label() != "SSD-only" {
		t.Fatal("SSD-only label")
	}
	if (RunSpec{Policy: engine.PolicyLC}).label() != "lc" {
		t.Fatal("policy label")
	}
	if (RunSpec{Label: "custom"}).label() != "custom" {
		t.Fatal("custom label")
	}
}

func TestFaCEOutperformsLCAndHDD(t *testing.T) {
	g := quickGolden(t)
	face, err := g.Run(RunSpec{Policy: engine.PolicyFaCEGSC, CacheFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := g.Run(RunSpec{Policy: engine.PolicyLC, CacheFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	hdd, err := g.Run(RunSpec{Policy: engine.PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline orderings: FaCE+GSC beats LC, and any flash
	// cache beats the HDD-only baseline.
	if face.TpmC <= lc.TpmC {
		t.Errorf("FaCE+GSC tpmC (%.0f) should exceed LC (%.0f)", face.TpmC, lc.TpmC)
	}
	if face.TpmC <= hdd.TpmC || lc.TpmC <= hdd.TpmC {
		t.Errorf("flash caching should beat HDD-only: face=%.0f lc=%.0f hdd=%.0f",
			face.TpmC, lc.TpmC, hdd.TpmC)
	}
	// LC saturates the flash device harder than FaCE (random writes).
	if lc.FlashUtilization <= face.FlashUtilization {
		t.Errorf("LC flash utilization (%.2f) should exceed FaCE+GSC (%.2f)",
			lc.FlashUtilization, face.FlashUtilization)
	}
}

func TestCacheSweepAndFormatters(t *testing.T) {
	g := quickGolden(t)
	sweep, err := g.CacheSweep([]engine.CachePolicy{engine.PolicyLC, engine.PolicyFaCEGSC}, []float64{0.06, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results[engine.PolicyLC]) != 2 || len(sweep.Results[engine.PolicyFaCEGSC]) != 2 {
		t.Fatalf("sweep incomplete: %+v", sweep)
	}
	// Hit rate should not decrease with a larger cache.
	for _, p := range sweep.Policies {
		rs := sweep.Results[p]
		if rs[1].FlashHitRate+0.05 < rs[0].FlashHitRate {
			t.Errorf("%s: hit rate decreased with a larger cache: %.2f -> %.2f",
				p, rs[0].FlashHitRate, rs[1].FlashHitRate)
		}
	}
	t3 := FormatTable3(sweep)
	t4 := FormatTable4(sweep)
	if !strings.Contains(t3, "Table 3(a)") || !strings.Contains(t3, "Table 3(b)") {
		t.Fatalf("Table 3 text malformed:\n%s", t3)
	}
	if !strings.Contains(t4, "IOPS") {
		t.Fatalf("Table 4 text malformed:\n%s", t4)
	}
}

func TestTable5(t *testing.T) {
	g := quickGolden(t)
	rows, err := g.Table5DRAMvsFlash(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table 5 rows = %d", len(rows))
	}
	// The paper's point: flash increments buy more throughput than equal-
	// cost DRAM increments.
	if rows[1].MoreFlash.TpmC <= rows[1].MoreDRAM.TpmC {
		t.Errorf("more flash (%.0f) should beat more DRAM (%.0f)",
			rows[1].MoreFlash.TpmC, rows[1].MoreDRAM.TpmC)
	}
	if !strings.Contains(FormatTable5(rows), "More Flash") {
		t.Fatal("Table 5 text malformed")
	}
}

func TestTable6AndFormat(t *testing.T) {
	g := quickGolden(t)
	rows, err := g.Table6RecoveryTime(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(g.Options().CheckpointIntervals) {
		t.Fatalf("Table 6 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FaCE.RestartTime <= 0 || r.HDDOnly.RestartTime <= 0 {
			t.Fatalf("restart times missing: %+v", r)
		}
		// The headline result: FaCE restarts faster than HDD-only.
		if r.FaCE.RestartTime >= r.HDDOnly.RestartTime {
			t.Errorf("interval %v: FaCE restart (%v) should beat HDD-only (%v)",
				r.Interval, r.FaCE.RestartTime, r.HDDOnly.RestartTime)
		}
	}
	if !strings.Contains(FormatTable6(rows), "restart") {
		t.Fatal("Table 6 text malformed")
	}
}

func TestAblationsQuick(t *testing.T) {
	g := quickGolden(t)
	sync, err := g.AblationSyncPolicy(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sync) != 2 {
		t.Fatalf("sync ablation rows = %d", len(sync))
	}
	// Write-back must reduce more disk writes than write-through (which
	// reduces none).
	if sync[0].WriteReduction <= sync[1].WriteReduction {
		t.Errorf("write-back reduction (%.2f) should exceed write-through (%.2f)",
			sync[0].WriteReduction, sync[1].WriteReduction)
	}
	groups, err := g.AblationGroupSize(0.10, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("group ablation rows = %d", len(groups))
	}
	if !strings.Contains(FormatResults("ablation", groups), "group=16") {
		t.Fatal("ablation text malformed")
	}
}

// TestHarnessNeverResizesTheCache: a spec whose cache holds fewer than two
// replacement groups is refused rather than run on a larger cache, and the
// group-size ablation leaves such groups out.
func TestHarnessNeverResizesTheCache(t *testing.T) {
	g := quickGolden(t)
	frames := g.cacheFrames(0.10)
	group := frames/2 + 1
	if _, err := g.Run(RunSpec{Policy: engine.PolicyFaCEGSC, CacheFraction: 0.10, GroupSize: group}); err == nil {
		t.Fatalf("a %d-frame cache ran with groups of %d", frames, group)
	}
	rows, err := g.AblationGroupSize(0.10, []int{16, group})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Label != "group=16" || rows[0].CacheFrames != frames {
		t.Fatalf("ablation rows %+v, want group=16 alone on %d frames", rows, frames)
	}
}

func TestAblationAsyncIOQuick(t *testing.T) {
	g := quickGolden(t)
	rows, err := g.AblationAsyncIO(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("async ablation rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		sync, async := rows[i], rows[i+1]
		// The asynchronous pipeline must not cost simulated throughput; a
		// small tolerance absorbs run-to-run divergence in the replacement
		// decisions.
		if async.TpmC < 0.9*sync.TpmC {
			t.Errorf("%s tpmC %.0f fell below 90%% of %s tpmC %.0f",
				async.Label, async.TpmC, sync.Label, sync.TpmC)
		}
		// Hit ratios of the two modes must stay comparable: the ring is a
		// transient buffer, not a second cache tier.
		if diff := async.FlashHitRate - sync.FlashHitRate; diff < -0.10 || diff > 0.15 {
			t.Errorf("%s flash hit rate %.3f diverges from %s %.3f",
				async.Label, async.FlashHitRate, sync.Label, sync.FlashHitRate)
		}
		if async.Pipeline.Staged == 0 || async.Pipeline.Batches == 0 {
			t.Errorf("%s: pipeline counters empty: %+v", async.Label, async.Pipeline)
		}
		if sync.Pipeline.Staged != 0 {
			t.Errorf("%s: sync run reports pipeline activity", sync.Label)
		}
	}
	if !strings.Contains(FormatAsyncAblation(rows), "group fill") {
		t.Fatal("async ablation text malformed")
	}
}

func TestJSONReport(t *testing.T) {
	g := quickGolden(t)
	rep := NewReport(g)
	res, err := g.Run(RunSpec{Policy: engine.PolicyFaCEGR, CacheFraction: 0.10, AsyncDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	rep.Add("single_run", []Result{res})
	var buf strings.Builder
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{ReportSchema, `"single_run"`, `"Policy"`, `"TpmC"`, `"Pipeline"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON report missing %s:\n%s", want, out[:min(len(out), 400)])
		}
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

func TestFigure6Quick(t *testing.T) {
	g := quickGolden(t)
	fig, err := g.Figure6PostRestartThroughput(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.FaCE.Timeline) != g.Options().Figure6Buckets {
		t.Fatalf("timeline buckets = %d", len(fig.FaCE.Timeline))
	}
	var total float64
	for _, v := range fig.FaCE.Timeline {
		total += v
	}
	if total <= 0 {
		t.Fatal("FaCE post-restart timeline is empty")
	}
	if !strings.Contains(FormatFigure6(fig), "Figure 6") {
		t.Fatal("Figure 6 text malformed")
	}
}

func TestSSDOnlyRunsOnFlashDevice(t *testing.T) {
	g := quickGolden(t)
	res, err := g.Run(RunSpec{Policy: engine.PolicyNone, DataOnFlash: true, FlashProfile: device.ProfileSamsung470})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "SSD-only" || res.TpmC <= 0 {
		t.Fatalf("SSD-only result: %+v", res)
	}
}

func TestFormatHelpers(t *testing.T) {
	if pct(0.5) != "50.0" || fnum(1234.4) != "1234" {
		t.Fatal("numeric formatters")
	}
	if fdur(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("fdur = %q", fdur(1500*time.Millisecond))
	}
	table := formatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(table, "a") || !strings.Contains(table, "333") {
		t.Fatal("formatTable broken")
	}
}
