package tpcc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/obs"
)

// Kind identifies a TPC-C transaction type.
type Kind int

// Transaction kinds.
const (
	KindNewOrder Kind = iota
	KindPayment
	KindOrderStatus
	KindDelivery
	KindStockLevel
	numKinds
)

// String names the transaction type.
func (k Kind) String() string {
	switch k {
	case KindNewOrder:
		return "NewOrder"
	case KindPayment:
		return "Payment"
	case KindOrderStatus:
		return "OrderStatus"
	case KindDelivery:
		return "Delivery"
	case KindStockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Mix is the standard TPC-C transaction mix in percent.
var Mix = map[Kind]int{
	KindNewOrder:    45,
	KindPayment:     43,
	KindOrderStatus: 4,
	KindDelivery:    4,
	KindStockLevel:  4,
}

// Counts tallies executed transactions by kind.
type Counts struct {
	Committed  [numKinds]int64
	RolledBack int64
	// DeadlockRetries counts transactions re-executed after being chosen
	// as a deadlock victim by the engine's page lock manager
	// (multi-terminal runs only).
	DeadlockRetries int64
}

// Total returns the number of committed transactions of all kinds.
func (c Counts) Total() int64 {
	var t int64
	for _, n := range c.Committed {
		t += n
	}
	return t
}

// NewOrders returns the number of committed New-Order transactions, the
// quantity tpmC is based on.
func (c Counts) NewOrders() int64 { return c.Committed[KindNewOrder] }

// Driver executes the TPC-C transaction mix against an engine.  A driver is
// bound to one engine instance; after a simulated crash, create a new
// driver over the reopened engine and the same Database.
//
// Two execution paths are provided: the classic single-stream path
// (RunOne/RunMany, one transaction at a time, parameters drawn from the
// driver's own stream) and the multi-terminal path (RunTerminals), which
// issues the same mix from N goroutines and retries transactions chosen as
// deadlock victims.  Both run every transaction through the engine's
// scheduler, under page locks, and account for it in the same way.
type Driver struct {
	eng  *engine.DB
	db   *Database
	rng  *rand.Rand
	seed int64

	// sched is the multi-terminal slot schedule stream.  It persists
	// across RunTerminals calls so a warm-up phase and a measurement
	// phase execute disjoint stretches of one stream (as RunMany does
	// with rng), while staying independent of the terminal count.
	sched *rand.Rand
	// terminals holds one generator per terminal, kept across
	// RunTerminals calls: runSlot re-seeds its terminal's generator for
	// every attempt instead of allocating a 5 KB source per transaction.
	terminals []*rand.Rand

	mu     sync.Mutex
	counts Counts

	// lat records the wall-clock latency of each committed transaction
	// by kind.  Multi-terminal slots are timed from slot start to commit,
	// so deadlock-retry and backoff time is included — the latency a
	// terminal actually experienced.
	lat [numKinds]*obs.Histogram
}

// NewDriver creates a driver with its own deterministic random stream.
func NewDriver(eng *engine.DB, db *Database, seed int64) *Driver {
	dr := &Driver{eng: eng, db: db, rng: rand.New(rand.NewSource(seed)), seed: seed}
	for k := range dr.lat {
		dr.lat[k] = obs.NewHistogram()
	}
	return dr
}

// KindLatencies returns the committed-transaction wall-clock latency
// histogram per kind, keyed by Kind.String().  Snapshots taken before and
// after a measurement window subtract (HistSnapshot.Sub) to isolate it.
func (dr *Driver) KindLatencies() map[string]obs.HistSnapshot {
	m := make(map[string]obs.HistSnapshot, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[k.String()] = dr.lat[k].Snapshot()
	}
	return m
}

// Counts returns the transactions executed so far.
func (dr *Driver) Counts() Counts {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.counts
}

// ResetCounts clears the transaction counters (after warm-up).
func (dr *Driver) ResetCounts() {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	dr.counts = Counts{}
}

// pickFrom chooses a transaction kind according to the standard mix using
// the given random stream.
func pickFrom(rng *rand.Rand) Kind {
	n := rng.Intn(100)
	acc := 0
	for _, k := range []Kind{KindNewOrder, KindPayment, KindOrderStatus, KindDelivery, KindStockLevel} {
		acc += Mix[k]
		if n < acc {
			return k
		}
	}
	return KindNewOrder
}

// pick chooses the next transaction kind according to the standard mix.
func (dr *Driver) pick() Kind { return pickFrom(dr.rng) }

// dispatch executes one transaction body of the given kind against
// warehouse w inside tx, drawing parameters from rng.
func (dr *Driver) dispatch(tx *engine.Tx, rng *rand.Rand, kind Kind, w int) error {
	switch kind {
	case KindNewOrder:
		return dr.db.NewOrder(tx, rng, w)
	case KindPayment:
		return dr.db.Payment(tx, rng, w)
	case KindOrderStatus:
		return dr.db.OrderStatus(tx, rng, w)
	case KindDelivery:
		return dr.db.Delivery(tx, rng, w)
	case KindStockLevel:
		return dr.db.StockLevel(tx, rng, w)
	default:
		return fmt.Errorf("tpcc: unknown transaction kind %d", kind)
	}
}

// RunOne executes one transaction of the standard mix and returns its kind.
// Expected New-Order rollbacks are aborted and counted, not reported as
// errors.  The engine clock is ticked afterwards so periodic checkpoints
// fire on schedule.
func (dr *Driver) RunOne() (Kind, error) {
	kind := dr.pick()
	if err := dr.Run(kind); err != nil {
		return kind, err
	}
	return kind, nil
}

// Run executes one transaction of the given kind in an Update transaction,
// every kind alike, drawing its parameters from the driver's stream.  A
// single stream has no concurrent transaction to deadlock with, so a
// deadlock ends the run like any other failure.
func (dr *Driver) Run(kind Kind) error {
	start := time.Now()
	w := randInt(dr.rng, 1, dr.db.cfg.Warehouses)
	err := dr.eng.Update(context.TODO(), func(tx *engine.Tx) error { return dr.dispatch(tx, dr.rng, kind, w) })
	if _, err := dr.record(kind, start, err); err != nil {
		return err
	}
	return dr.eng.Tick()
}

// RunMany executes n transactions of the standard mix.
func (dr *Driver) RunMany(n int) error {
	for i := 0; i < n; i++ {
		if _, err := dr.RunOne(); err != nil {
			return err
		}
	}
	return nil
}

// maxDeadlockRetries bounds how often a multi-terminal transaction is
// re-executed after losing a deadlock before the run gives up.
const maxDeadlockRetries = 1000

// RunTerminals executes total transactions of the standard mix from
// `terminals` concurrent goroutines, each transaction going through the
// engine's View (read-only kinds) or Update scheduler.  Transactions
// chosen as deadlock victims by the page lock manager are retried with a
// short backoff; expected New-Order rollbacks are counted, not errors.
//
// The workload is deterministic in the driver seed and independent of the
// terminal count: the kind and parameter stream of the i-th transaction
// are fixed up front, and terminals claim slots from that shared schedule.
// Only the interleaving changes with the terminal count, which is what
// makes one-terminal and multi-terminal runs comparable.
//
// Terminal 0 is the calling goroutine, whose stack has already grown to
// what a transaction needs; only terminals 1…N−1 are started.
func (dr *Driver) RunTerminals(ctx context.Context, terminals, total int) error {
	if terminals < 1 {
		terminals = 1
	}
	if total <= 0 {
		return nil
	}
	if dr.sched == nil {
		dr.sched = rand.New(rand.NewSource(dr.seed + 0x7e21))
	}
	for len(dr.terminals) < terminals {
		dr.terminals = append(dr.terminals, rand.New(newLazySource(0)))
	}
	kinds := make([]Kind, total)
	seeds := make([]int64, total)
	for i := range kinds {
		kinds[i] = pickFrom(dr.sched)
		seeds[i] = dr.sched.Int63()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make(chan error, terminals)
	)
	run := func(terminal int) {
		if err := dr.runTerminal(ctx, terminal, &next, kinds, seeds); err != nil {
			errs <- fmt.Errorf("tpcc: terminal %d: %w", terminal, err)
			cancel()
		}
	}
	for t := 1; t < terminals; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(t)
		}()
	}
	run(0)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// runTerminal claims schedule slots and runs them until the schedule is
// done or the run is cancelled.
func (dr *Driver) runTerminal(ctx context.Context, terminal int, next *atomic.Int64, kinds []Kind, seeds []int64) error {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(kinds) || ctx.Err() != nil {
			return nil
		}
		if err := dr.runSlot(ctx, dr.terminals[terminal], kinds[i], seeds[i]); err != nil {
			return err
		}
		// One terminal advances the engine clock, so periodic
		// checkpoints keep firing without the other terminals
		// serializing behind the (exclusive) tick.
		if terminal == 0 {
			if err := dr.eng.Tick(); err != nil {
				return err
			}
		}
	}
}

// runSlot executes one scheduled transaction, retrying deadlock victims.
// The parameter stream is restarted from the slot seed on every attempt —
// rng, the calling terminal's own generator, is re-seeded, which gives the
// stream a new generator with that seed would — so a retry re-executes the
// identical transaction.  The stream must stay math/rand's: every
// transaction's parameters, and with them every simulated tpmC, benchmark
// fingerprint and paper-table golden, follow from it.  Re-seeding math/rand
// itself costs 1 881 generator steps, about 10 µs or a tenth of a tpcc-miss
// transaction, so the terminals' generators draw from a lazySource, whose
// Seed computes nothing until a value is drawn.
//
// Exactly one outcome is recorded per schedule slot — Committed[kind] for
// the attempt that commits, RolledBack for the attempt that reaches its
// expected New-Order rollback — and never for an attempt aborted as a
// deadlock victim.  Those only tick DeadlockRetries, so tpmC counts each
// scheduled transaction at most once no matter how often it was retried.
func (dr *Driver) runSlot(ctx context.Context, rng *rand.Rand, kind Kind, seed int64) error {
	readonly := kind == KindOrderStatus || kind == KindStockLevel
	start := time.Now()
	for attempt := 0; ; attempt++ {
		rng.Seed(seed)
		w := randInt(rng, 1, dr.db.cfg.Warehouses)
		body := func(tx *engine.Tx) error { return dr.dispatch(tx, rng, kind, w) }
		var err error
		if readonly {
			err = dr.eng.View(ctx, body)
		} else {
			err = dr.eng.Update(ctx, body)
		}
		outcome, err := dr.record(kind, start, err)
		if outcome != slotDeadlock {
			return err
		}
		if attempt >= maxDeadlockRetries {
			return fmt.Errorf("%w (deadlocked %d times)", err, attempt)
		}
		dr.mu.Lock()
		dr.counts.DeadlockRetries++
		dr.mu.Unlock()
		// Back off so a transaction whose lock order opposes the
		// prevailing traffic is not re-victimized forever.
		backoff := time.Duration(attempt+1) * 20 * time.Microsecond
		if backoff > time.Millisecond {
			backoff = time.Millisecond
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// record accounts for the outcome of one attempt at a transaction of the
// given kind, started at start: a commit counts in Committed[kind] and its
// latency histogram, a clean expected rollback in RolledBack.  Any other
// outcome counts nothing and comes back as an error; for a deadlock victim
// (slotDeadlock) the caller decides whether to retry.
func (dr *Driver) record(kind Kind, start time.Time, err error) (slotOutcome, error) {
	outcome := classifySlotErr(err)
	switch outcome {
	case slotCommitted:
		dr.lat[kind].Observe(time.Since(start))
		dr.mu.Lock()
		dr.counts.Committed[kind]++
		dr.mu.Unlock()
		return outcome, nil
	case slotRollback:
		dr.mu.Lock()
		dr.counts.RolledBack++
		dr.mu.Unlock()
		return outcome, nil
	case slotBrokenRollback:
		return outcome, fmt.Errorf("tpcc: %s rollback did not complete cleanly: %w", kind, err)
	default:
		return outcome, fmt.Errorf("tpcc: %s: %w", kind, err)
	}
}

// slotOutcome is how one transaction attempt affects the accounting.
type slotOutcome int

const (
	slotCommitted      slotOutcome = iota // record Committed[kind]
	slotDeadlock                          // aborted as a victim: retry, tick DeadlockRetries
	slotRollback                          // clean expected New-Order rollback: record RolledBack
	slotBrokenRollback                    // ErrRollback with a failed abort joined on: fatal
	slotFatal                             // anything else ends the run
)

// classifySlotErr maps the error returned by one View/Update attempt to
// its accounting outcome.  Sentinels are matched with errors.Is, so a
// wrapped or joined ErrDeadlock still triggers retry accounting.
func classifySlotErr(err error) slotOutcome {
	switch {
	case err == nil:
		return slotCommitted
	case errors.Is(err, engine.ErrDeadlock):
		// Checked before ErrRollback: an error carrying both (a
		// rollback whose abort lost a deadlock) is an aborted attempt,
		// not a completed one, and must be retried — counting it as a
		// rollback would both miscount and silently drop the retry.
		return slotDeadlock
	case errors.Is(err, ErrRollback):
		// Expected New-Order rollback, already rolled back by Update.
		// The scheduler returns the closure's ErrRollback verbatim only
		// when the rollback itself succeeded; anything joined onto it
		// means the abort failed, and counting that as a clean rollback
		// would swallow a broken engine state.
		//lint:allow facevet/sentinelerr identity on purpose: a wrapped ErrRollback means the abort itself failed (see comment above)
		if err != ErrRollback {
			return slotBrokenRollback
		}
		return slotRollback
	default:
		return slotFatal
	}
}
