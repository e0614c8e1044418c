// Package kv implements persistent key-value namespaces on top of the
// engine — the data model the network server (internal/server) exposes.
//
// Unlike the TPC-C heap catalog (internal/heap), whose page lists live
// only in process memory, every structure here is page-resident and
// rebuilt from pages on reopen, so a served database survives
// kill-and-reopen with no side files:
//
//   - Page 1 is the catalog: a magic number plus one fixed-size entry per
//     namespace (name, B-tree root).
//   - Each namespace is one record tree (internal/btree): its records live
//     in the tree's leaves, kept in key order, so a lookup reads the root,
//     the inner nodes and one leaf, and no page besides.
//
// All record access happens inside engine transactions supplied by the
// caller (one server request or batch = one View/Update), so namespaces
// inherit the engine's locking, WAL logging and crash recovery as-is.  A
// write locks its leaf exclusively before reading it, so writers of one
// leaf queue instead of deadlocking on a lock upgrade.
//
// An overwrite whose value fits the record's cell updates it in place, so
// sustained overwrites of a key neither grow its leaf nor split it.
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

// catalogMagic identifies an initialised KV catalog page whose namespaces
// are record trees.  A catalog of the layout that kept records on heap
// pages carries 0xFACE4B56 and is refused with ErrNotKV.
const catalogMagic = 0xFACE4B57 // "KV"

// Layout constants.
const (
	// MaxNameLen bounds namespace names so a catalog entry stays fixed
	// size.
	MaxNameLen = 31

	// MaxValueSize bounds record values: a record of the largest value
	// fills a leaf of its own.
	MaxValueSize = btree.MaxValue

	// Catalog page payload: magic u32, count u16, then fixed entries.
	catalogHeader = 4 + 2
	// Catalog entry: namelen u8, name [MaxNameLen]byte, tree root u64.
	catalogEntrySize = 1 + MaxNameLen + 8
	maxNamespaces    = (page.PayloadSize - catalogHeader) / catalogEntrySize
)

// Errors returned by the KV layer.
var (
	ErrTooLarge    = errors.New("kv: value too large")
	ErrBadName     = errors.New("kv: bad namespace name")
	ErrNoNamespace = errors.New("kv: unknown namespace")
	ErrCatalogFull = errors.New("kv: catalog full")
	ErrNotKV       = errors.New("kv: page 1 is not a kv catalog")
	ErrKeyNotFound = errors.New("kv: key not found")
)

// Store is the set of namespaces of one database.  It is safe for
// concurrent use; per-record operations run inside caller-supplied
// transactions.
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
			// A new page holds no catalog entries.
			id, err := tx.AllocEdit(page.TypeKVCatalog, func(w *page.Writer) error {
				binary.LittleEndian.PutUint32(w.Bytes(page.HeaderSize, 4), catalogMagic)
				return nil
			})
			if err != nil {
				return err
			}
			if id != 1 {
				return fmt.Errorf("kv: catalog allocated as page %d, want 1", id)
			}
			return nil
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
			s.spaces[e.name] = &Namespace{name: e.name, tree: btree.Attach(e.name, e.root)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

type catalogEntry struct {
	name string
	root page.ID
}

func readCatalogEntry(p []byte, i int) catalogEntry {
	off := catalogHeader + i*catalogEntrySize
	nameLen := int(p[off])
	return catalogEntry{
		name: string(p[off+1 : off+1+nameLen]),
		root: page.ID(binary.LittleEndian.Uint64(p[off+1+MaxNameLen:])),
	}
}

// writeCatalogEntry writes entry i of the catalog page.
func writeCatalogEntry(w *page.Writer, i int, e catalogEntry) {
	p := w.Bytes(page.HeaderSize+catalogHeader+i*catalogEntrySize, catalogEntrySize)
	p[0] = byte(len(e.name))
	copy(p[1:1+MaxNameLen], e.name)
	binary.LittleEndian.PutUint64(p[1+MaxNameLen:], uint64(e.root))
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

// Create ensures the named namespace exists, allocating its record tree
// in one transaction.  Creating a namespace that already exists succeeds
// and changes nothing.
func (s *Store) Create(ctx context.Context, name string) (*Namespace, error) {
	if name == "" || len(name) > MaxNameLen {
		return nil, fmt.Errorf("%w: %q (1..%d bytes)", ErrBadName, name, MaxNameLen)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if ns, err := s.Namespace(name); err == nil {
		return ns, nil
	}
	var tree *btree.Tree
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
		if tree, err = btree.CreateRecords(tx, name); err != nil {
			return err
		}
		return tx.Edit(1, func(w *page.Writer) error {
			writeCatalogEntry(w, count, catalogEntry{name: name, root: tree.Root()})
			w.PutUint16(page.HeaderSize+4, uint16(count+1))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	ns := &Namespace{name: name, tree: tree}
	s.mu.Lock()
	s.spaces[name] = ns
	s.mu.Unlock()
	return ns, nil
}

// Namespace is one key space: a record tree whose leaves hold the records.
// All record methods run inside the caller's transaction.
type Namespace struct {
	name string
	tree *btree.Tree
}

// Name returns the namespace name.
func (n *Namespace) Name() string { return n.name }

// Pending holds nothing: namespaces keep no state outside their pages, so a
// write transaction has nothing to publish once it commits.  Set still
// takes one, which may be nil, and Apply does nothing.
type Pending struct{}

// NewPending returns a Pending for one write transaction.
func NewPending() *Pending { return &Pending{} }

// Apply does nothing: there is nothing to publish.
func (p *Pending) Apply() {}

// Get reads the value of key into a fresh slice.  The boolean reports
// whether the key exists.
func (n *Namespace) Get(tx *engine.Tx, key uint64) ([]byte, bool, error) {
	var val []byte
	found, err := n.tree.Lookup(tx, key, func(v []byte) error {
		val = append([]byte(nil), v...)
		return nil
	})
	if err != nil || !found {
		return nil, false, err
	}
	return val, true, nil
}

// Set writes the pair, overwriting an existing value: in place when the
// value fits the record's cell, otherwise in a new cell of the same leaf,
// which may split.  p may be nil.
func (n *Namespace) Set(tx *engine.Tx, p *Pending, key uint64, val []byte) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(val), MaxValueSize)
	}
	return n.tree.Put(tx, key, val)
}

// SetRun writes vals[i] under keys[i] for every i, as calls of Set in that
// order would; keys must ascend strictly.  The pairs that go into one leaf
// are written by one update record (btree.Tree.PutRun).
func (n *Namespace) SetRun(tx *engine.Tx, keys []uint64, vals [][]byte) error {
	for _, val := range vals {
		if len(val) > MaxValueSize {
			return fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(val), MaxValueSize)
		}
	}
	return n.tree.PutRun(tx, keys, vals)
}

// Delete removes the key, reporting whether it existed.
func (n *Namespace) Delete(tx *engine.Tx, key uint64) (bool, error) {
	return n.tree.Remove(tx, key)
}

// Scan visits the pairs with lo <= key <= hi in key order, at most limit
// of them (0 = unlimited).  The value slice passed to fn aliases the page
// buffer and is only valid during the call.
func (n *Namespace) Scan(tx *engine.Tx, lo, hi uint64, limit int, fn func(key uint64, val []byte) error) error {
	count := 0
	return n.tree.ScanRecords(tx, lo, hi, func(key uint64, val []byte) error {
		if limit > 0 && count >= limit {
			return btree.ErrStopScan
		}
		count++
		return fn(key, val)
	})
}
