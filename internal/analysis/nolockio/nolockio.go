// Package nolockio defines an analyzer that reports device I/O performed
// while a mutex acquired in the same function is still held.
//
// The cache's two-lock protocol (PR 2) and the WAL's reservation pipeline
// (PR 7) both exist to keep microsecond-scale critical sections away from
// millisecond-scale device writes: a stripe or manager mutex is released
// before ReadAt/WriteAt/Sync and reacquired afterward to revalidate.  One
// forgotten Unlock turns a concurrent cache into a serial one — silently,
// since the code stays correct.  This analyzer mechanizes the protocol:
// inside any function that acquires an exclusive sync.Mutex/sync.RWMutex
// Lock, no statement may reach internal/device I/O until the lock is
// released.
//
// Reachability is package-local and transitive: a function that calls
// one of internal/device's blocking entry points (ReadAt, WriteAt,
// ReadRun, WriteRun, Sync) is an I/O function, and so is anything in the
// same package that calls one.  Pure accessors on a device — Stats,
// NumBlocks and friends — are cheap snapshots and are exempt.  Lock tracking is flow-approximate — a
// linear walk per function where Lock() adds the receiver expression to
// the held set, Unlock() removes it, and `defer Unlock()` pins it for the
// rest of the body; branch bodies are walked with copies of the set.
// RLock is deliberately ignored (shared holders tolerate concurrent I/O
// by design — the scheduler's txMu.RLock spans whole transactions), as
// are goroutine bodies and deferred calls.  Cold paths that hold a lock
// across I/O on purpose (startup, shutdown, checkpoint fences) carry
// //lint:allow justifications.
package nolockio

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/reprolab/face/internal/analysis"
)

// Analyzer flags device I/O reached while a locally-acquired exclusive
// mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "nolockio",
	Doc:  "no path may reach internal/device I/O while holding a mutex acquired in the enclosing function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// The device package itself is where I/O lives; the rule governs its
	// callers.
	if isDevicePath(pass.Pkg.Path()) {
		return nil
	}

	io := buildIOSet(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, io: io}
			w.block(fn.Body, map[string]bool{})
		}
	}
	return nil
}

func isDevicePath(path string) bool {
	return path == "internal/device" || strings.HasSuffix(path, "/internal/device")
}

// ioNames are the device entry points that block on the medium.  Other
// exported functions in internal/device (Stats, NumBlocks, Profile, ...)
// are in-memory accessors.
var ioNames = map[string]bool{
	"ReadAt":   true,
	"WriteAt":  true,
	"ReadRun":  true,
	"WriteRun": true,
	"Sync":     true,
}

// isDeviceIO reports whether fn is a blocking internal/device call.
func isDeviceIO(fn *types.Func) bool {
	return isDevicePath(fn.Pkg().Path()) && ioNames[fn.Name()]
}

// ioReason describes why a function counts as I/O, for diagnostics.
type ioReason struct {
	direct bool   // calls internal/device itself
	via    string // same-package callee it reaches I/O through
}

// buildIOSet computes the package-local transitive closure of "reaches
// internal/device": seed with functions that call the device package
// directly, then propagate through same-package calls to fixpoint.
func buildIOSet(pass *analysis.Pass) map[*types.Func]ioReason {
	// calls[f] = same-package functions f calls directly.
	calls := make(map[*types.Func][]*types.Func)
	io := make(map[*types.Func]ioReason)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					// A closure or spawned goroutine does its I/O on
					// some later stack; constructing it here is not I/O.
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch {
				case isDeviceIO(callee):
					io[caller] = ioReason{direct: true}
				case callee.Pkg() == pass.Pkg:
					calls[caller] = append(calls[caller], callee)
				}
				return true
			})
		}
	}

	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if _, ok := io[caller]; ok {
				continue
			}
			for _, callee := range callees {
				if _, ok := io[callee]; ok {
					io[caller] = ioReason{via: callee.Name()}
					changed = true
					break
				}
			}
		}
	}
	return io
}

// calleeFunc resolves the statically-known callee of call, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// walker performs the flow-approximate held-set walk over one function
// body.  held maps a mutex receiver expression (by source text) to true
// while an exclusive Lock on it is outstanding.
type walker struct {
	pass *analysis.Pass
	io   map[*types.Func]ioReason
}

func (w *walker) block(b *ast.BlockStmt, held map[string]bool) {
	for _, stmt := range b.List {
		w.stmt(stmt, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op := lockOp(w.pass, s.X); op != "" {
			if op == "Lock" {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		w.exprs(held, s.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the lock stays held for
		// the remainder of the linear walk, which is exactly what the
		// held set already says, so there is nothing to do.  Other
		// deferred calls run after the body — outside this walk's scope.
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the holder; only its
		// argument expressions are evaluated here.
		w.exprs(held, s.Call.Args...)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(held, s.Cond)
		w.block(s.Body, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.exprs(held, s.Cond)
		}
		inner := copyHeld(held)
		w.block(s.Body, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.exprs(held, s.X)
		w.block(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.exprs(held, s.Tag)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.exprs(held, cc.List...)
				inner := copyHeld(held)
				for _, st := range cc.Body {
					w.stmt(st, inner)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				inner := copyHeld(held)
				for _, st := range cc.Body {
					w.stmt(st, inner)
				}
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if cc.Comm != nil {
					w.stmt(cc.Comm, inner)
				}
				for _, st := range cc.Body {
					w.stmt(st, inner)
				}
			}
		}
	case *ast.BlockStmt:
		w.block(s, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.AssignStmt:
		w.exprs(held, s.Rhs...)
		w.exprs(held, s.Lhs...)
	case *ast.ReturnStmt:
		w.exprs(held, s.Results...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, vs.Values...)
				}
			}
		}
	case *ast.SendStmt:
		w.exprs(held, s.Chan, s.Value)
	case *ast.IncDecStmt:
		w.exprs(held, s.X)
	}
}

// exprs reports I/O calls inside the expressions when a lock is held.
// Function literals are not descended: they run later, under whatever
// locks hold then.
func (w *walker) exprs(held map[string]bool, exprs ...ast.Expr) {
	if len(held) == 0 {
		return
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(w.pass, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			var how string
			switch {
			case isDeviceIO(callee):
				how = "device I/O"
			case callee.Pkg() == w.pass.Pkg:
				if r, ok := w.io[callee]; ok {
					if r.direct {
						how = "a call that performs device I/O"
					} else {
						how = "a call that reaches device I/O via " + r.via
					}
				}
			}
			if how == "" {
				return true
			}
			w.pass.Reportf(call.Pos(), "%s (%s) while %s is locked; release the mutex before touching the device", how, callee.Name(), heldNames(held))
			return true
		})
	}
}

// lockOp recognizes m.Lock()/m.Unlock() on a sync.Mutex or sync.RWMutex
// (RLock/RUnlock are intentionally not tracked) and returns the receiver
// expression's source text plus the operation.
func lockOp(pass *analysis.Pass, e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	if fn.Name() != "Lock" && fn.Name() != "Unlock" {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	// Deterministic order for diagnostics.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}
