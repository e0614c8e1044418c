// Package lock implements a page-granularity lock manager with shared and
// exclusive modes, S→X upgrades, context-aware blocking waits, and
// deadlock detection over a wait-for graph.
//
// It is the concurrency substrate of the engine's transaction scheduler:
// View and Update transactions acquire locks on first touch (shared for
// reads, exclusive for writes) and hold them to commit or abort — strict
// two-phase locking, so the schedule is serializable and aborts never
// cascade.  A request that would close a cycle in the wait-for graph is
// refused immediately with ErrDeadlock; the transaction is expected to
// roll back, release everything it holds, and retry.
//
// Grant policy is FIFO: a new request is granted only when it is
// compatible with the current holders and no earlier request is queued, so
// writers are not starved by a stream of readers.  The one exception is
// upgrades: a holder converting S→X enters the queue ahead of plain
// requests (it already blocks everyone behind it anyway), and two holders
// upgrading the same page deadlock by construction — one of them is
// refused rather than both waiting forever.
//
// The uncontended path is cheap.  A transaction's lock state (Txn) answers
// a request for a page it already holds strongly enough without the
// manager; a grant that does not wait reads no clock; and page entries and
// transaction records are recycled under the manager's mutex, so a
// steady-state grant and release allocate nothing.
package lock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// ErrDeadlock is returned by Acquire when granting the request could never
// happen because the requester is part of a wait cycle.  The caller should
// abort the transaction (releasing its locks breaks the cycle) and retry.
// The concrete error is a *DeadlockError carrying the detected cycle;
// match with errors.Is(err, ErrDeadlock) as always, and errors.As to read
// the forensics.
var ErrDeadlock = errors.New("lock: deadlock detected")

// WaitEdge is one edge of a wait-for cycle: Tx is blocked waiting on Page.
type WaitEdge struct {
	Tx   uint64  `json:"tx"`
	Page page.ID `json:"page"`
}

// DeadlockError is the structured form of a refused Acquire: the victim,
// the request that closed the cycle, the wait-for cycle itself, and the
// pages the victim held at refusal time.  It unwraps to ErrDeadlock, so
// existing errors.Is checks keep working.
type DeadlockError struct {
	// Tx is the victim (the requester that was refused).
	Tx uint64
	// Page and Mode are the request that would have closed the cycle.
	Page page.ID
	Mode Mode
	// Cycle is the wait-for cycle, starting at the victim: each edge's
	// transaction is blocked on its page, which a holder ahead in the
	// cycle will not release.
	Cycle []WaitEdge
	// Held is the victim's held-page set at refusal time (sorted), the
	// locks whose release will break the cycle when it aborts.
	Held []page.ID
}

// Error keeps the historical message shape and appends the cycle.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("tx %d waiting for %s on page %d: %v (cycle: %s)",
		e.Tx, e.Mode, e.Page, ErrDeadlock, e.CycleString())
}

// Unwrap makes errors.Is(err, ErrDeadlock) hold.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// CycleString renders the cycle compactly: "tx 5→page 3, tx 7→page 4"
// means tx 5 waits on page 3 (held along the cycle by tx 7), and so on
// back around to the first transaction.
func (e *DeadlockError) CycleString() string {
	var b []byte
	for i, edge := range e.Cycle {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = fmt.Appendf(b, "tx %d→page %d", edge.Tx, edge.Page)
	}
	return string(b)
}

// Mode is a lock mode.
type Mode uint8

// Lock modes, in increasing strength.
const (
	// Shared is held by readers; any number of transactions share it.
	Shared Mode = iota
	// Exclusive is held by writers; it is incompatible with everything.
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// compatible reports whether a request of mode b can share the page with a
// holder of mode a.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Recycling bounds: a page table grown past maxKeptSlots is replaced by a
// fresh small one once it is empty (emptying a large table in place costs
// its whole capacity on every later reuse), and the free lists keep at most
// maxFree entries and records each.
const (
	maxKeptSlots = 1024
	maxFree      = 4096
)

// waiter is one blocked Acquire call, queued on entry e of page id.
type waiter struct {
	tx      *Txn
	e       *entry
	id      page.ID
	mode    Mode
	upgrade bool
	// granted is set (under Manager.mu) before ready is closed; the
	// context-cancellation path checks it to learn whether the lock was
	// handed over concurrently with the cancellation.
	granted bool
	ready   chan struct{}
}

// holder is one transaction's grant on a page.
type holder struct {
	tx   *Txn
	mode Mode
}

// entry is the lock state of one page: a handful of holders and the queue
// of blocked requests.  An entry left with neither is recycled with the
// capacity of both.
type entry struct {
	holders []holder
	queue   []*waiter
}

// grant maps a page to its entry: in the manager's entry table, and, with
// the mode held, in a transaction's held set.
type grant struct {
	id   page.ID
	e    *entry
	mode Mode
}

// pageTable is a table of grants keyed by page id: open addressing with
// linear probing, at most three quarters full, a nil entry marking a free
// slot.  Both tables sit on the path of every page access, where it finds,
// adds and removes a page several times faster than a map does.
type pageTable struct {
	slots []grant // a power of two of them
	n     int
}

// minTableSlots is the size of a new table: room for 48 pages.
const minTableSlots = 64

func newPageTable() pageTable { return pageTable{slots: make([]grant, minTableSlots)} }

// home is the slot page id's probe run starts at.
func (h *pageTable) home(id page.ID) uint64 {
	return uint64(id) * 0x9E3779B97F4A7C15 >> 32 & uint64(len(h.slots)-1)
}

// find returns the slot of page id, or the free slot where it would go.
func (h *pageTable) find(id page.ID) (int, bool) {
	mask := uint64(len(h.slots) - 1)
	for i := h.home(id); ; i = (i + 1) & mask {
		if g := &h.slots[i]; g.e == nil || g.id == id {
			return int(i), g.e != nil
		}
	}
}

// put records the grant g, replacing the page's earlier one.
func (h *pageTable) put(g grant) {
	i, ok := h.find(g.id)
	if !ok && 4*(h.n+1) > 3*len(h.slots) {
		old := h.slots
		*h = pageTable{slots: make([]grant, 2*len(old))}
		for _, o := range old {
			if o.e != nil {
				h.put(o)
			}
		}
		i, _ = h.find(g.id)
	}
	if !ok {
		h.n++
	}
	h.slots[i] = g
}

// remove deletes page id, moving back each later member of its probe run
// whose home slot the hole now cuts it off from.
func (h *pageTable) remove(id page.ID) {
	i, ok := h.find(id)
	if !ok {
		return
	}
	mask := len(h.slots) - 1
	for j := (i + 1) & mask; h.slots[j].e != nil; j = (j + 1) & mask {
		// Slot j may fill the hole at i unless its home lies cyclically
		// in (i, j].
		if home := int(h.home(h.slots[j].id)); (j-home)&mask >= (j-i)&mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = grant{}
	h.n--
}

// reset empties the table for reuse, shrinking one that grew large.
func (h *pageTable) reset() {
	if len(h.slots) > maxKeptSlots {
		*h = newPageTable()
		return
	}
	clear(h.slots)
	h.n = 0
}

// Txn is the lock state of one transaction: the pages it holds and the
// request it is blocked on.  Obtain it with Manager.Begin, issue its
// requests from a single goroutine, and end it with ReleaseAll, after which
// it must not be used.
type Txn struct {
	m  *Manager
	id uint64
	// held holds a grant for every page the transaction holds.  It is
	// written under m.mu: by the owner's own calls, or by another
	// transaction granting the owner's queued request while the owner is
	// blocked in Acquire.  The owner alone reads it without the mutex (the
	// re-entrant fast path); the hand-over of a grant — the ready channel,
	// or m.mu on the cancellation path — orders those writes before it.
	held pageTable
	// wait is the request the transaction is blocked on (nil while it is
	// not blocked): the wait-for graph's nodes.
	wait *waiter
}

// Manager is the lock manager.  All methods are safe for concurrent use.
// Transactions are identified by caller-chosen uint64 ids; a transaction
// must issue its Acquire calls from a single goroutine.
type Manager struct {
	mu sync.Mutex
	// entries holds the entry of every page locked or requested.
	entries pageTable
	// txns maps the ids of transactions holding or requesting locks to
	// their state.
	txns map[uint64]*Txn
	// Released entries and transaction records, reused with the capacity
	// of their slices and tables.
	freeEntries []*entry
	freeTxns    []*Txn
	stats       metrics.LockStats
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{entries: newPageTable(), txns: make(map[uint64]*Txn)}
}

// Stats returns a snapshot of the lock manager counters.
func (m *Manager) Stats() metrics.LockStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Begin returns the lock state of transaction tx, registering a recycled
// or new record if tx has none.
func (m *Manager) Begin(tx uint64) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.txns[tx]; t != nil {
		return t
	}
	var t *Txn
	if n := len(m.freeTxns); n > 0 {
		t, m.freeTxns = m.freeTxns[n-1], m.freeTxns[:n-1]
	} else {
		t = &Txn{m: m, held: newPageTable()}
	}
	t.id = tx
	m.txns[tx] = t
	return t
}

// Acquire takes the page lock in the given mode on behalf of tx, blocking
// until it is granted, the context ends, or a deadlock is detected.
// Requests are re-entrant: holding X satisfies a request for S or X,
// holding S satisfies S, and S→X is an upgrade.  Locks are held until
// ReleaseAll.
func (m *Manager) Acquire(ctx context.Context, tx uint64, id page.ID, mode Mode) error {
	_, err := m.Begin(tx).Acquire(ctx, id, mode)
	return err
}

// ReleaseAll releases every lock tx holds (strict two-phase locking: call
// it once, after commit or abort).  Waiters become eligible immediately.
func (m *Manager) ReleaseAll(tx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.txns[tx]; t != nil {
		m.releaseLocked(t)
	}
}

// Acquire is Manager.Acquire for this transaction, and also reports how
// long the request blocked: zero unless it had to queue.  A page the
// transaction already holds in mode or stronger is answered from its own
// held set, without the manager.
func (t *Txn) Acquire(ctx context.Context, id page.ID, mode Mode) (time.Duration, error) {
	i, holds := t.held.find(id)
	g := t.held.slots[i]
	if holds && g.mode >= mode {
		return 0, nil
	}
	m := t.m
	m.mu.Lock()
	var w *waiter
	e := g.e
	if holds {
		// Upgrade S→X.
		if len(e.holders) == 1 {
			e.holders[0].mode = Exclusive
			t.held.slots[i].mode = Exclusive
			m.stats.Upgrades++
			m.mu.Unlock()
			return 0, nil
		}
		w = &waiter{tx: t, e: e, id: id, mode: Exclusive, upgrade: true, ready: make(chan struct{})}
		// Upgrades queue ahead of plain requests (but behind earlier
		// upgrades): the holder already blocks everything queued.
		n := 0
		for n < len(e.queue) && e.queue[n].upgrade {
			n++
		}
		e.queue = slices.Insert(e.queue, n, w)
	} else {
		if j, ok := m.entries.find(id); ok {
			e = m.entries.slots[j].e
		} else {
			if n := len(m.freeEntries); n > 0 {
				e, m.freeEntries = m.freeEntries[n-1], m.freeEntries[:n-1]
			} else {
				e = &entry{}
			}
			m.entries.put(grant{id: id, e: e})
		}
		if len(e.queue) == 0 && grantable(e, mode) {
			m.grantLocked(e, id, t, mode)
			m.mu.Unlock()
			return 0, nil
		}
		w = &waiter{tx: t, e: e, id: id, mode: mode, ready: make(chan struct{})}
		e.queue = append(e.queue, w)
	}

	// The request blocks: check that granting it could ever happen.
	t.wait = w
	if cycle := m.deadlockCycleLocked(t); cycle != nil {
		t.wait = nil
		m.dequeueLocked(w)
		m.stats.Deadlocks++
		held := make([]page.ID, 0, t.held.n)
		for _, hg := range t.held.slots {
			if hg.e != nil {
				held = append(held, hg.id)
			}
		}
		slices.Sort(held)
		m.mu.Unlock()
		return 0, &DeadlockError{Tx: t.id, Page: id, Mode: mode, Cycle: cycle, Held: held}
	}
	m.stats.Waits++
	start := time.Now()
	m.mu.Unlock()

	var err error
	select {
	case <-w.ready:
	case <-ctx.Done():
		err = ctx.Err()
	}
	waited := time.Since(start)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.WaitTime += waited
	if err != nil && !w.granted {
		// A lock handed over concurrently with the cancellation is kept:
		// the caller will abort, and ReleaseAll cleans it up.
		t.wait = nil
		m.stats.Cancels++
		m.dequeueLocked(w)
	}
	return waited, err
}

// Holds reports whether the transaction holds a lock on page id.
func (t *Txn) Holds(id page.ID) bool {
	_, ok := t.held.find(id)
	return ok
}

// Release drops the transaction's lock on page id before the transaction
// ends, and wakes whoever that makes eligible.  It is for locks that guard
// no data the transaction depends on past the call that took them: a
// released lock is two-phase locking given up for that page.
func (t *Txn) Release(id page.ID) {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := t.held.find(id)
	if !ok {
		return
	}
	e := t.held.slots[i].e
	t.held.remove(id)
	j := slices.IndexFunc(e.holders, func(h holder) bool { return h.tx == t })
	e.holders = slices.Delete(e.holders, j, j+1)
	m.promoteLocked(id, e)
}

// ReleaseAll releases every lock the transaction holds and retires its
// state; t must not be used afterwards.
func (t *Txn) ReleaseAll() {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(t)
}

// releaseLocked drops every lock t holds, wakes whoever that makes
// eligible, and recycles t.
func (m *Manager) releaseLocked(t *Txn) {
	for _, g := range t.held.slots {
		if e := g.e; e != nil {
			i := slices.IndexFunc(e.holders, func(h holder) bool { return h.tx == t })
			e.holders = slices.Delete(e.holders, i, i+1)
			m.promoteLocked(g.id, e)
		}
	}
	delete(m.txns, t.id)
	t.held.reset()
	if len(m.freeTxns) < maxFree {
		m.freeTxns = append(m.freeTxns, t)
	}
}

// grantable reports whether a (non-held, non-queued) request of the given
// mode is compatible with the current holders.
func grantable(e *entry, mode Mode) bool {
	for _, h := range e.holders {
		if !compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// grantLocked records the grant and updates the counters.
func (m *Manager) grantLocked(e *entry, id page.ID, t *Txn, mode Mode) {
	e.holders = append(e.holders, holder{tx: t, mode: mode})
	t.held.put(grant{id: id, e: e, mode: mode})
	if mode == Exclusive {
		m.stats.ExclusiveGrants++
	} else {
		m.stats.SharedGrants++
	}
}

// promoteLocked grants as many queued requests as the holder set allows,
// in FIFO order, and recycles the entry when it is left empty.
func (m *Manager) promoteLocked(id page.ID, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if w.upgrade {
			// Grantable only once w.tx is the sole remaining holder.
			if len(e.holders) != 1 || e.holders[0].tx != w.tx {
				break
			}
			e.holders[0].mode = Exclusive
			w.tx.held.put(grant{id: id, e: e, mode: Exclusive})
			m.stats.Upgrades++
		} else {
			if !grantable(e, w.mode) {
				break
			}
			m.grantLocked(e, id, w.tx, w.mode)
		}
		e.queue = slices.Delete(e.queue, 0, 1)
		w.tx.wait = nil
		w.granted = true
		close(w.ready)
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		m.entries.remove(id)
		if m.entries.n == 0 && len(m.entries.slots) > maxKeptSlots {
			m.entries = newPageTable()
		}
		if len(m.freeEntries) < maxFree {
			m.freeEntries = append(m.freeEntries, e)
		}
	}
}

// dequeueLocked unlinks a refused or cancelled request and lets the queue
// behind it move.
func (m *Manager) dequeueLocked(w *waiter) {
	e := w.e
	i := slices.Index(e.queue, w)
	e.queue = slices.Delete(e.queue, i, i+1)
	m.promoteLocked(w.id, e)
}

// deadlockCycleLocked reports whether start is part of a cycle in the
// wait-for graph, returning the cycle's edges (starting at start) or nil.
// Edges run from each blocked transaction to every transaction that must
// release or yield first: the incompatible holders of the page it waits
// on, and incompatible requests queued ahead of it (the grant order is
// FIFO, so those really do go first).  The DFS path at the moment the
// cycle closes IS the cycle, so capturing it costs nothing on the
// no-deadlock fast path beyond one append/pop per visited node.
func (m *Manager) deadlockCycleLocked(start *Txn) []WaitEdge {
	visited := make(map[*Txn]bool)
	var path []WaitEdge
	var visit func(t *Txn) bool
	visit = func(t *Txn) bool {
		w := t.wait
		if w == nil {
			return false
		}
		path = append(path, WaitEdge{Tx: t.id, Page: w.id})
		check := func(other *Txn) bool {
			if other == t {
				return false
			}
			if other == start {
				return true
			}
			if visited[other] {
				return false
			}
			visited[other] = true
			return visit(other)
		}
		for _, h := range w.e.holders {
			if !compatible(h.mode, w.mode) && check(h.tx) {
				return true
			}
		}
		for _, q := range w.e.queue {
			if q == w {
				break
			}
			if !compatible(q.mode, w.mode) && check(q.tx) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if visit(start) {
		return path
	}
	return nil
}
