package tpcc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
)

// TestClassifySlotErr pins the outcome classification runSlot's
// accounting branches on.  The load-bearing rows are the wrapped forms:
// the scheduler and engine annotate ErrDeadlock with %w on several
// paths, so matching by identity instead of errors.Is would silently
// turn retried deadlock victims into fatal errors — and a rollback whose
// abort lost a deadlock (errors.Join of both sentinels) must count as an
// aborted attempt, never as a clean rollback.
func TestClassifySlotErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want slotOutcome
	}{
		{"nil commits", nil, slotCommitted},
		{"bare deadlock", engine.ErrDeadlock, slotDeadlock},
		{"wrapped deadlock still retries", &wrapErr{msg: "engine: lock 12: victim", err: engine.ErrDeadlock}, slotDeadlock},
		{"deadlock joined onto rollback is an abort", errors.Join(ErrRollback, engine.ErrDeadlock), slotDeadlock},
		{"bare rollback is clean", ErrRollback, slotRollback},
		{"wrapped rollback means the abort failed", &wrapErr{msg: "abort failed", err: ErrRollback}, slotBrokenRollback},
		{"anything else is fatal", errors.New("unexpected"), slotFatal},
	}
	for _, tc := range cases {
		if got := classifySlotErr(tc.err); got != tc.want {
			t.Errorf("%s: classifySlotErr(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// wrapErr is a minimal %w-style wrapper.
type wrapErr struct {
	msg string
	err error
}

func (e *wrapErr) Error() string { return e.msg + ": " + e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

// TestRunTerminalsForcedDeadlockAccounting is the deadlock-retry
// accounting regression test: every schedule slot must land in the
// counters exactly once — Committed[kind] or RolledBack — no matter how
// many times it was retried as a deadlock victim, and the database must
// reflect exactly the committed work.  A double-counted retry inflates
// tpmC precisely when terminal counts (and so deadlock rates) are high.
//
// Deadlocks are forced, not hoped for: while the terminals run, a
// saboteur transaction repeatedly locks stock pages, waits until a
// terminal has queued behind a lock, and then locks a district page — the
// opposite of New-Order's district-early, stock-late order.  A New-Order
// holding its district and reaching for the saboteur's stock page closes
// an AB/BA cycle and is chosen as the victim, so the driver's retry path
// runs.  The lock manager refuses whichever request closes a cycle, so
// the saboteur is the victim when the terminal asked first; on one
// processor, where a terminal runs until it blocks, that is the common
// order.  A batch of slots in which no terminal was refused proves
// nothing, so the terminals run further batches, up to maxBatches, until
// one was; every check below is over all the slots run.
func TestRunTerminalsForcedDeadlockAccounting(t *testing.T) {
	const (
		terminals  = 8
		total      = 400
		maxBatches = 20
	)
	eng := newLockEngine(t, terminals+1) // +1 admission slot for the saboteur
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 42)

	stop := make(chan struct{})
	var saboteurWG sync.WaitGroup
	saboteurWG.Add(1)
	go func() {
		defer saboteurWG.Done()
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := db.Config()
			dist := i%cfg.DistrictsPerWarehouse + 1
			item := i%cfg.Items + 1
			err := eng.Update(ctx, func(tx *engine.Tx) error {
				// Stock pages first, district second: the reverse of
				// New-Order.  The mutations are no-ops (nothing is
				// logged), but Modify still takes the exclusive page
				// locks and holds them to commit.  Before it reaches for
				// the district the saboteur yields until a terminal has
				// queued behind a lock (bounded, so a quiet moment does
				// not stall it): without the wait, transactions on a
				// single-core runner barely overlap and cycles never form.
				waits := eng.Snapshot().Locks.Waits
				for j := 0; j < 8; j++ {
					it := (item + j*13) % db.Config().Items
					rid, ok, err := db.stockIdx.Get(tx, stockKey(1, it+1))
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					if err := db.stock.Update(tx, rid, func([]byte) error { return nil }); err != nil {
						return err
					}
				}
				for deadline := time.Now().Add(20 * time.Millisecond); eng.Snapshot().Locks.Waits == waits && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				return db.district.Update(tx, db.districtRID[districtKey(1, dist)], func([]byte) error {
					return nil
				})
			})
			if err != nil && !errors.Is(err, engine.ErrDeadlock) {
				// The engine may already be closing when the run ends.
				if errors.Is(err, engine.ErrClosed) {
					return
				}
				t.Errorf("saboteur: %v", err)
				return
			}
		}
	}()

	slots := 0
	for batch := 0; batch < maxBatches && (batch == 0 || dr.Counts().DeadlockRetries == 0); batch++ {
		if err := dr.RunTerminals(context.Background(), terminals, total); err != nil {
			t.Fatal(err)
		}
		slots += total
	}
	close(stop)
	saboteurWG.Wait()

	c := dr.Counts()
	// Exactly one outcome per schedule slot.
	if got := c.Total() + c.RolledBack; got != int64(slots) {
		t.Fatalf("%d outcomes recorded for %d slots (counts %+v) — deadlock retries double-counted",
			got, slots, c)
	}
	if c.DeadlockRetries == 0 {
		t.Fatal("saboteur forced no driver-side deadlock retries; the retry path went unexercised")
	}
	snap := eng.Snapshot()
	if snap.Locks.Deadlocks == 0 {
		t.Fatal("lock manager reported no deadlocks")
	}
	// Every driver retry is a rolled-back attempt the engine aborted.
	if snap.Aborted < c.DeadlockRetries {
		t.Fatalf("%d deadlock retries but only %d engine aborts", c.DeadlockRetries, snap.Aborted)
	}

	// The database state must equal the committed work exactly: each
	// committed New-Order advanced one district order id; retried and
	// rolled-back attempts must have left no trace.
	cfg := db.Config()
	var advanced int64
	err = eng.View(context.Background(), func(tx *engine.Tx) error {
		for w := 1; w <= cfg.Warehouses; w++ {
			for dist := 1; dist <= cfg.DistrictsPerWarehouse; dist++ {
				rid := db.districtRID[districtKey(w, dist)]
				if err := db.district.Get(tx, rid, func(rec []byte) error {
					advanced += int64(districtNextOrder(rec) - (cfg.InitialOrdersPerDistrict + 1))
					return nil
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if advanced != c.NewOrders() {
		t.Fatalf("district order ids advanced by %d, want %d committed New-Orders (%d deadlock retries left traces)",
			advanced, c.NewOrders(), c.DeadlockRetries)
	}
	t.Logf("%d slots: %d committed, %d rolled back, %d driver deadlock retries, %d lock-manager deadlocks",
		slots, c.Total(), c.RolledBack, c.DeadlockRetries, snap.Locks.Deadlocks)
}
