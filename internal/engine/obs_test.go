package engine

import (
	"context"
	"maps"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/page"
)

// TestObsPhaseSumInvariant checks the defining property of the commit
// trace: the phases are disjoint wall-time windows inside one
// transaction, so their sum never exceeds the total latency — and for a
// transaction dominated by a slow closure, the closure phase captures
// most of it.
func TestObsPhaseSumInvariant(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()

	ctx := context.Background()
	var id page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		var err error
		id, err = tx.Alloc(page.TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot().Phases
	if err := db.Update(ctx, func(tx *Tx) error {
		time.Sleep(5 * time.Millisecond)
		writeValue(t, tx, id, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p := db.Snapshot().Phases.Sub(before)
	if p.Total.Count != 1 {
		t.Fatalf("total count = %d, want 1", p.Total.Count)
	}
	total := time.Duration(p.Total.Sum)
	phaseSum := time.Duration(p.Admission.Sum + p.LockWait.Sum + p.Buffer.Sum +
		p.WalAppend.Sum + p.DurableWait.Sum + p.Closure.Sum)
	if phaseSum > total {
		t.Fatalf("phase sum %v exceeds total %v", phaseSum, total)
	}
	// The 5ms sleep dominates; the untraced remainder (scheduler entry,
	// commit bookkeeping) must be small, so phaseSum ≈ total.
	if phaseSum < total/2 {
		t.Fatalf("phase sum %v accounts for under half of total %v", phaseSum, total)
	}
	if c := time.Duration(p.Closure.Sum); c < 5*time.Millisecond {
		t.Fatalf("closure phase %v did not absorb the 5ms sleep", c)
	}
}

// TestViewsStayUntraced: a View records its latency in face_view_seconds
// and nothing else — it starts no span trace and charges no commit-path
// phase, which is what keeps the read path's page operations free of
// clock reads.
func TestViewsStayUntraced(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	db := r.open(t, false)
	defer db.Close()

	ctx := context.Background()
	var id page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		var err error
		if id, err = tx.Alloc(page.TypeHeap); err != nil {
			return err
		}
		writeValue(t, tx, id, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The trace counter and every series of the Update histograms
	// (face_tx_total_seconds, face_tx_phase_seconds), as rendered.
	traced := func() map[string]string {
		var sb strings.Builder
		db.Metrics().WritePrometheus(&sb)
		m := map[string]string{}
		for _, line := range strings.Split(sb.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if ok && (name == "face_trace_started_total" || strings.HasPrefix(name, "face_tx_")) {
				m[name] = val
			}
		}
		return m
	}
	before := traced()
	if before["face_trace_started_total"] != "1" || before[`face_tx_phase_seconds_count{phase="durable_wait"}`] != "1" {
		t.Fatalf("one Update left %v", before)
	}
	views := db.Metrics().Histogram("face_view_seconds").Snapshot().Count
	for range 100 {
		if err := db.View(ctx, func(tx *Tx) error {
			if v := readValue(t, tx, id); v != 7 {
				t.Fatalf("read %d, want 7", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if after := traced(); !maps.Equal(before, after) {
		t.Fatalf("100 Views moved the trace counter or the Update histograms:\nbefore %v\nafter  %v", before, after)
	}
	if n := db.Metrics().Histogram("face_view_seconds").Snapshot().Count - views; n != 100 {
		t.Fatalf("face_view_seconds counted %d Views, want 100", n)
	}
}

// TestObsMetricsRegistered checks that a live database registers the
// per-layer metrics on its registry and that traced work lands in them.
func TestObsMetricsRegistered(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	r.cfg.MaxWriters = 2
	db := r.open(t, false)
	defer db.Close()

	ctx := context.Background()
	var id page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		var err error
		id, err = tx.Alloc(page.TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Update(ctx, func(tx *Tx) error {
			writeValue(t, tx, id, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	db.Metrics().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"face_tx_total_seconds_count 11",
		`face_tx_phase_seconds_count{phase="durable_wait"} 11`,
		"face_committed_total 11",
		"face_wal_appends_total",
		"face_pool_hits_total",
		"face_lock_waits_total",
		"face_cache_lookups_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
	// Shared-registry path: snapshot phases line up with the histograms.
	if p := db.Snapshot().Phases; p.Total.Count != 11 {
		t.Errorf("snapshot total count = %d, want 11", p.Total.Count)
	}
}

// TestObsSharedRegistry checks that a caller-supplied registry receives
// the engine's metrics (the faced wiring).
func TestObsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, PolicyNone)
	r.cfg.Obs = reg
	db := r.open(t, false)
	defer db.Close()
	if db.Metrics() != reg {
		t.Fatal("engine did not adopt the supplied registry")
	}
	if err := db.Update(context.Background(), func(tx *Tx) error {
		_, err := tx.Alloc(page.TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "face_tx_total_seconds_count 1") {
		t.Error("supplied registry missing engine histograms")
	}
}
