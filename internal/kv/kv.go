// Package kv implements persistent key-value namespaces on top of the
// engine — the data model the network server (internal/server) exposes.
//
// Unlike the TPC-C heap catalog (internal/heap), whose page lists live
// only in process memory, every structure here is page-resident and
// rebuilt from pages on reopen, so a served database survives
// kill-and-reopen with no side files:
//
//   - Page 1 is the catalog: a magic number plus one fixed-size entry per
//     namespace (name, B-tree root, meta-chain head).
//   - Each namespace keeps its records in slotted heap pages and indexes
//     them with a B-tree (uint64 key → RID).
//   - The ids of a namespace's heap pages are recorded in a chain of
//     kv-meta pages, so reopen can rediscover the insertion frontier.
//
// All record access happens inside engine transactions supplied by the
// caller (one server request or batch = one View/Update), so namespaces
// inherit the engine's locking, WAL logging and crash recovery as-is.
//
// Overwrites of a key with a value of the same or smaller size update the
// record in place.  This matters under sustained traffic: slotted pages
// never reclaim tombstoned cell space, so the delete+reinsert path grows
// the database while in-place updates keep it stable.
package kv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/reprolab/face/internal/btree"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// catalogMagic identifies an initialised KV catalog page.
const catalogMagic = 0xFACE4B56 // "KV"

// Layout constants.
const (
	// MaxNameLen bounds namespace names so a catalog entry stays fixed
	// size.
	MaxNameLen = 31

	// MaxValueSize bounds record values.  A record is recHeader bytes of
	// key and value length plus the value, and must fit a fresh slotted
	// page together with its slot.
	MaxValueSize = page.PayloadSize - slotOverhead - recHeader

	// recHeader is the stored record prefix: key u64, value length u32.
	// The explicit length lets an overwrite shrink and regrow a value
	// within the cell's allocated size without ever reinserting.
	recHeader = 8 + 4

	// slotOverhead is the slotted-page cost of one record beyond its
	// bytes (the slot itself).
	slotOverhead = 4

	// Catalog page payload: magic u32, count u16, then fixed entries.
	catalogHeader = 4 + 2
	// Catalog entry: namelen u8, name [MaxNameLen]byte, tree root u64,
	// meta head u64.
	catalogEntrySize = 1 + MaxNameLen + 8 + 8
	maxNamespaces    = (page.PayloadSize - catalogHeader) / catalogEntrySize

	// Meta page payload: count u16, next u64, then count page ids (u64).
	metaHeader  = 2 + 8
	metaEntries = (page.PayloadSize - metaHeader) / 8
)

// Errors returned by the KV layer.
var (
	ErrTooLarge     = errors.New("kv: value too large")
	ErrBadName      = errors.New("kv: bad namespace name")
	ErrNoNamespace  = errors.New("kv: unknown namespace")
	ErrCatalogFull  = errors.New("kv: catalog full")
	ErrNotKV        = errors.New("kv: page 1 is not a kv catalog")
	ErrKeyNotFound  = errors.New("kv: key not found")
	ErrCorruptIndex = errors.New("kv: index entry points at a record with a different key")
)

// Store is the set of namespaces of one database.  It is safe for
// concurrent use; per-record operations run inside caller-supplied
// transactions and per-namespace in-memory state is only advanced after
// those transactions commit (see Pending).
type Store struct {
	db *engine.DB

	// createMu serializes namespace creation (each create rewrites the
	// shared catalog page).
	createMu sync.Mutex

	mu     sync.RWMutex
	spaces map[string]*Namespace
}

// Open attaches to the database's KV catalog, initialising it on a fresh
// database.  A non-empty database whose page 1 is not a KV catalog is
// refused with ErrNotKV.
func Open(ctx context.Context, db *engine.DB) (*Store, error) {
	s := &Store{db: db, spaces: make(map[string]*Namespace)}
	if db.NumPages() == 0 {
		err := db.Update(ctx, func(tx *engine.Tx) error {
			id, err := tx.Alloc(page.TypeKVCatalog)
			if err != nil {
				return err
			}
			if id != 1 {
				return fmt.Errorf("kv: catalog allocated as page %d, want 1", id)
			}
			return tx.Edit(id, func(w *page.Writer) error {
				binary.LittleEndian.PutUint32(w.Bytes(page.HeaderSize, 4), catalogMagic)
				w.PutUint16(page.HeaderSize+4, 0)
				return nil
			})
		})
		if err != nil {
			return nil, fmt.Errorf("kv: initialising catalog: %w", err)
		}
		return s, nil
	}
	err := db.View(ctx, func(tx *engine.Tx) error {
		var entries []catalogEntry
		err := tx.Read(1, func(buf page.Buf) error {
			if buf.Type() != page.TypeKVCatalog {
				return fmt.Errorf("%w: page type %s", ErrNotKV, buf.Type())
			}
			p := buf.Payload()
			if binary.LittleEndian.Uint32(p[0:]) != catalogMagic {
				return fmt.Errorf("%w: bad magic", ErrNotKV)
			}
			n := int(binary.LittleEndian.Uint16(p[4:]))
			for i := 0; i < n; i++ {
				entries = append(entries, readCatalogEntry(p, i))
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, e := range entries {
			ns := &Namespace{store: s, name: e.name, metaHead: e.metaHead}
			ns.tree = btree.Attach(e.name, e.root)
			if err := ns.loadMeta(tx); err != nil {
				return fmt.Errorf("kv: loading namespace %q: %w", e.name, err)
			}
			s.spaces[e.name] = ns
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

type catalogEntry struct {
	name     string
	root     page.ID
	metaHead page.ID
}

func readCatalogEntry(p []byte, i int) catalogEntry {
	off := catalogHeader + i*catalogEntrySize
	nameLen := int(p[off])
	return catalogEntry{
		name:     string(p[off+1 : off+1+nameLen]),
		root:     page.ID(binary.LittleEndian.Uint64(p[off+1+MaxNameLen:])),
		metaHead: page.ID(binary.LittleEndian.Uint64(p[off+1+MaxNameLen+8:])),
	}
}

// writeCatalogEntry writes entry i of the catalog page.
func writeCatalogEntry(w *page.Writer, i int, e catalogEntry) {
	p := w.Bytes(page.HeaderSize+catalogHeader+i*catalogEntrySize, catalogEntrySize)
	p[0] = byte(len(e.name))
	copy(p[1:1+MaxNameLen], e.name)
	binary.LittleEndian.PutUint64(p[1+MaxNameLen:], uint64(e.root))
	binary.LittleEndian.PutUint64(p[1+MaxNameLen+8:], uint64(e.metaHead))
}

// Namespace returns the named namespace, or ErrNoNamespace.
func (s *Store) Namespace(name string) (*Namespace, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns, ok := s.spaces[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoNamespace, name)
	}
	return ns, nil
}

// Names returns the namespace names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.spaces))
	for name := range s.spaces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Create ensures the named namespace exists, allocating its index root,
// meta-chain head and first data page in one transaction.  Creating a
// namespace that already exists succeeds and changes nothing.
func (s *Store) Create(ctx context.Context, name string) (*Namespace, error) {
	if name == "" || len(name) > MaxNameLen {
		return nil, fmt.Errorf("%w: %q (1..%d bytes)", ErrBadName, name, MaxNameLen)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if ns, err := s.Namespace(name); err == nil {
		return ns, nil
	}
	var (
		tree     *btree.Tree
		metaHead page.ID
		dataPage page.ID
	)
	err := s.db.Update(ctx, func(tx *engine.Tx) error {
		// Check capacity first so a full catalog fails before allocating.
		var count int
		err := tx.Read(1, func(buf page.Buf) error {
			count = int(binary.LittleEndian.Uint16(buf.Payload()[4:]))
			return nil
		})
		if err != nil {
			return err
		}
		if count >= maxNamespaces {
			return fmt.Errorf("%w: %d namespaces", ErrCatalogFull, count)
		}
		if tree, err = btree.Create(tx, name); err != nil {
			return err
		}
		if metaHead, err = tx.Alloc(page.TypeKVMeta); err != nil {
			return err
		}
		if dataPage, err = tx.Alloc(page.TypeHeap); err != nil {
			return err
		}
		err = tx.Edit(metaHead, func(w *page.Writer) error {
			initMeta(w, dataPage)
			return nil
		})
		if err != nil {
			return err
		}
		return tx.Edit(1, func(w *page.Writer) error {
			writeCatalogEntry(w, count, catalogEntry{name: name, root: tree.Root(), metaHead: metaHead})
			w.PutUint16(page.HeaderSize+4, uint16(count+1))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	ns := &Namespace{
		store:     s,
		name:      name,
		tree:      tree,
		metaHead:  metaHead,
		dataPages: []page.ID{dataPage},
		metaPages: []page.ID{metaHead},
	}
	s.mu.Lock()
	s.spaces[name] = ns
	s.mu.Unlock()
	return ns, nil
}

// Namespace is one key space: a B-tree index over records stored in
// slotted heap pages.  All record methods run inside the caller's
// transaction; write methods additionally take a Pending that the caller
// must Apply after the transaction commits (and discard if it aborts).
type Namespace struct {
	store    *Store
	name     string
	tree     *btree.Tree
	metaHead page.ID

	// mu guards the committed page lists below.  They are a cache of the
	// meta chain: dataPages is where inserts go (the tail is the open
	// insertion frontier), metaPages locates the chain tail for appends.
	mu        sync.Mutex
	dataPages []page.ID
	metaPages []page.ID
}

// Name returns the namespace name.
func (n *Namespace) Name() string { return n.name }

// loadMeta rebuilds the page lists by walking the meta chain.
func (n *Namespace) loadMeta(tx *engine.Tx) error {
	id := n.metaHead
	for id != 0 {
		var next page.ID
		err := tx.Read(id, func(buf page.Buf) error {
			if buf.Type() != page.TypeKVMeta {
				return fmt.Errorf("kv: page %d in meta chain has type %s", id, buf.Type())
			}
			p := buf.Payload()
			count := int(binary.LittleEndian.Uint16(p[0:]))
			next = page.ID(binary.LittleEndian.Uint64(p[2:]))
			for i := 0; i < count; i++ {
				n.dataPages = append(n.dataPages,
					page.ID(binary.LittleEndian.Uint64(p[metaHeader+i*8:])))
			}
			return nil
		})
		if err != nil {
			return err
		}
		n.metaPages = append(n.metaPages, id)
		id = next
	}
	return nil
}

// Pending accumulates the page-list growth of one write transaction.  The
// new pages are linked into the persistent meta chain inside the
// transaction (so an abort rolls them back), but the in-memory lists are
// only advanced by Apply, which the caller invokes after Update returns
// nil.  A Pending of an aborted transaction is simply dropped; the
// allocated pages leak as unreferenced free space, which is rare and
// harmless.
type Pending struct {
	grown map[*Namespace]*growth
}

type growth struct {
	dataPages []page.ID
	metaPages []page.ID
}

// NewPending creates an empty growth set for one transaction.
func NewPending() *Pending { return &Pending{} }

func (p *Pending) growthFor(n *Namespace) *growth {
	if p.grown == nil {
		p.grown = make(map[*Namespace]*growth)
	}
	g := p.grown[n]
	if g == nil {
		g = &growth{}
		p.grown[n] = g
	}
	return g
}

// Apply publishes the committed growth into the namespaces' page lists.
// Call it exactly once, and only after the transaction committed.
func (p *Pending) Apply() {
	for n, g := range p.grown {
		n.mu.Lock()
		n.dataPages = append(n.dataPages, g.dataPages...)
		n.metaPages = append(n.metaPages, g.metaPages...)
		n.mu.Unlock()
	}
	p.grown = nil
}

// record builds the stored form of a pair: key u64, value length u32,
// value bytes.
func record(key uint64, val []byte) []byte {
	rec := make([]byte, recHeader+len(val))
	binary.LittleEndian.PutUint64(rec, key)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(val)))
	copy(rec[recHeader:], val)
	return rec
}

// recordValue extracts the value bytes of a stored record, verifying the
// key the index promised.  The returned slice aliases rec.
func recordValue(rec []byte, key uint64, rid page.RID) ([]byte, error) {
	if len(rec) < recHeader {
		return nil, fmt.Errorf("%w: truncated record at %v", ErrCorruptIndex, rid)
	}
	if binary.LittleEndian.Uint64(rec) != key {
		return nil, fmt.Errorf("%w: key %d at %v", ErrCorruptIndex, key, rid)
	}
	vlen := int(binary.LittleEndian.Uint32(rec[8:]))
	if recHeader+vlen > len(rec) {
		return nil, fmt.Errorf("%w: value length %d exceeds cell at %v", ErrCorruptIndex, vlen, rid)
	}
	return rec[recHeader : recHeader+vlen], nil
}

// Get reads the value of key into a fresh slice.  The boolean reports
// whether the key exists.
func (n *Namespace) Get(tx *engine.Tx, key uint64) ([]byte, bool, error) {
	rid, found, err := n.tree.Get(tx, key)
	if err != nil || !found {
		return nil, false, err
	}
	var val []byte
	err = tx.Read(rid.Page, func(buf page.Buf) error {
		rec, err := buf.Record(int(rid.Slot))
		if err != nil {
			return err
		}
		v, err := recordValue(rec, key, rid)
		if err != nil {
			return err
		}
		val = append([]byte(nil), v...)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Set writes the pair, overwriting an existing value.  Same-or-smaller
// overwrites happen in place; growing ones tombstone the old record and
// reinsert.
func (n *Namespace) Set(tx *engine.Tx, p *Pending, key uint64, val []byte) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(val), MaxValueSize)
	}
	rec := record(key, val)
	rid, found, err := n.tree.Get(tx, key)
	if err != nil {
		return err
	}
	if found {
		var inPlace bool
		err := tx.Edit(rid.Page, func(w *page.Writer) error {
			old, err := w.Page().Record(int(rid.Slot))
			if err != nil {
				return err
			}
			if len(rec) > len(old) {
				return nil
			}
			inPlace = true
			// Keep the cell at its allocated size: write the new record
			// over the old one's first bytes and leave the slack in place,
			// so a later overwrite may grow back into it without
			// reinserting.
			cell, err := w.Record(int(rid.Slot))
			if err != nil {
				return err
			}
			copy(cell, rec)
			return nil
		})
		if err != nil {
			return err
		}
		if inPlace {
			return nil
		}
		err = tx.Edit(rid.Page, func(w *page.Writer) error {
			return w.Delete(int(rid.Slot))
		})
		if err != nil {
			return err
		}
		if err := n.tree.Delete(tx, key); err != nil {
			return err
		}
	}
	newRID, err := n.insert(tx, p, rec)
	if err != nil {
		return err
	}
	return n.tree.Insert(tx, key, newRID)
}

// Delete removes the key, reporting whether it existed.
func (n *Namespace) Delete(tx *engine.Tx, key uint64) (bool, error) {
	rid, found, err := n.tree.Get(tx, key)
	if err != nil || !found {
		return false, err
	}
	err = tx.Edit(rid.Page, func(w *page.Writer) error {
		return w.Delete(int(rid.Slot))
	})
	if err != nil {
		return false, err
	}
	if err := n.tree.Delete(tx, key); err != nil {
		return false, err
	}
	return true, nil
}

// Scan visits the pairs with lo <= key <= hi in key order, at most limit
// of them (0 = unlimited).  The value slice passed to fn aliases the page
// buffer and is only valid during the call.
func (n *Namespace) Scan(tx *engine.Tx, lo, hi uint64, limit int, fn func(key uint64, val []byte) error) error {
	count := 0
	return n.tree.Scan(tx, lo, hi, func(key uint64, rid page.RID) error {
		if limit > 0 && count >= limit {
			return btree.ErrStopScan
		}
		count++
		return tx.Read(rid.Page, func(buf page.Buf) error {
			rec, err := buf.Record(int(rid.Slot))
			if err != nil {
				return err
			}
			v, err := recordValue(rec, key, rid)
			if err != nil {
				return err
			}
			return fn(key, v)
		})
	})
}

// insert places the record on the namespace's open tail page, allocating
// a fresh page (and linking it into the meta chain) when the tail is
// full.
func (n *Namespace) insert(tx *engine.Tx, p *Pending, rec []byte) (page.RID, error) {
	g := p.growthFor(n)
	tail := n.tailData(g)
	slot, err := insertInto(tx, tail, rec)
	if err == nil {
		return page.RID{Page: tail, Slot: uint16(slot)}, nil
	}
	if !errors.Is(err, page.ErrPageFull) {
		return page.RID{}, err
	}
	id, err := tx.Alloc(page.TypeHeap)
	if err != nil {
		return page.RID{}, err
	}
	if err := n.appendMeta(tx, g, id); err != nil {
		return page.RID{}, err
	}
	g.dataPages = append(g.dataPages, id)
	slot, err = insertInto(tx, id, rec)
	if err != nil {
		return page.RID{}, err
	}
	return page.RID{Page: id, Slot: uint16(slot)}, nil
}

// tailData returns the open insertion page: the last page grown by this
// transaction, or the committed tail.
func (n *Namespace) tailData(g *growth) page.ID {
	if len(g.dataPages) > 0 {
		return g.dataPages[len(g.dataPages)-1]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dataPages[len(n.dataPages)-1]
}

// tailMeta mirrors tailData for the meta chain.
func (n *Namespace) tailMeta(g *growth) page.ID {
	if len(g.metaPages) > 0 {
		return g.metaPages[len(g.metaPages)-1]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metaPages[len(n.metaPages)-1]
}

// appendMeta records a new data page id in the persistent meta chain,
// extending the chain with a fresh meta page when the tail is full.
// Concurrent appends to the same namespace serialize on the exclusive
// page lock of the chain tail.
func (n *Namespace) appendMeta(tx *engine.Tx, g *growth, id page.ID) error {
	tail := n.tailMeta(g)
	var full bool
	err := tx.Edit(tail, func(w *page.Writer) error {
		count := int(binary.LittleEndian.Uint16(w.Page().Payload()))
		if count >= metaEntries {
			full = true
			return nil
		}
		w.PutUint64(page.HeaderSize+metaHeader+count*8, uint64(id))
		w.PutUint16(page.HeaderSize, uint16(count+1))
		return nil
	})
	if err != nil || !full {
		return err
	}
	next, err := tx.Alloc(page.TypeKVMeta)
	if err != nil {
		return err
	}
	err = tx.Edit(next, func(w *page.Writer) error {
		initMeta(w, id)
		return nil
	})
	if err != nil {
		return err
	}
	err = tx.Edit(tail, func(w *page.Writer) error {
		w.PutUint64(page.HeaderSize+2, uint64(next))
		return nil
	})
	if err != nil {
		return err
	}
	g.metaPages = append(g.metaPages, next)
	return nil
}

// initMeta formats a fresh meta page as the chain's tail, listing one data
// page.
func initMeta(w *page.Writer, dataPage page.ID) {
	w.PutUint16(page.HeaderSize, 1)
	w.PutUint64(page.HeaderSize+2, 0)
	w.PutUint64(page.HeaderSize+metaHeader, uint64(dataPage))
}

// insertInto adds the record to one page, returning the slot.
func insertInto(tx *engine.Tx, id page.ID, rec []byte) (int, error) {
	var slot int
	err := tx.Edit(id, func(w *page.Writer) error {
		var err error
		slot, err = w.Insert(rec)
		return err
	})
	return slot, err
}
