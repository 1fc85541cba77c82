package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Lock-fact extraction for the lockorder analyzer (DESIGN.md §10).
//
// ScanPackage walks every function body once in source order, simulating
// the held-lock set: sync Lock/RLock/TryLock/TryRLock push a guard,
// Unlock/RUnlock pop it, and deferred releases keep the guard held to the
// end of the body (the idiomatic `mu.Lock(); defer mu.Unlock()`). From the
// simulation it records four kinds of raw facts into the Index:
//
//   - Acquires:  every acquisition site a function (closures included) may
//     execute, keyed by the guard's lock class.
//   - LockEdges: guard B acquired while guard A was still held — a direct
//     A→B ordering commitment.
//   - HeldCalls: module-local calls made while a guard was held; the
//     analyzer expands these against the callees' transitive Acquires.
//   - LockCalls: all module-local call edges, so acquisition sets can be
//     closed over call chains that themselves hold nothing.
//
// Guards are keyed by lock *class*, not instance: a mutex struct field is
// "pkg.Type.field" (every instance of the type shares an ordering
// discipline), a type with an embedded mutex is "pkg.Type", a package-level
// mutex is "pkg.name", and a function-local mutex is "func-key.name". An
// if body that leaves (return, panic, break, continue, goto) runs on a copy
// of the held set, so its `mu.Unlock(); return` does not release mu for the
// code after it. Every other branch is folded in linearly, which can only
// lose edges (a branch's release empties the held set), never invent a held
// guard that no execution holds at that point.

// lockAcquireMethods and lockReleaseMethods are the sync method names that
// move a guard in or out of the held set. TryLock/TryRLock are treated as
// successful acquisitions: for ordering purposes the attempt is the fact.
var lockAcquireMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}

var lockReleaseMethods = map[string]bool{
	"Unlock": true, "RUnlock": true,
}

type heldLock struct {
	guard string
	pos   string
}

type lockScanner struct {
	fset *token.FileSet
	info *types.Info
	idx  *Index
	fn   *types.Func // enclosing declared function; closures attribute here
	key  string      // FuncKey(fn)
}

func scanLockFacts(fset *token.FileSet, f *ast.File, info *types.Info, idx *Index) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, _ := info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		s := &lockScanner{fset: fset, info: info, idx: idx, fn: fn, key: FuncKey(fn)}
		var held []heldLock
		s.scan(fd.Body, &held)
	}
}

// scan walks n in source order threading the held-lock set through.
func (s *lockScanner) scan(n ast.Node, held *[]heldLock) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure body runs with its own (unknown) held set; give it
			// a fresh one. Its acquisitions still attribute to s.fn — the
			// declared function "may acquire" whatever its closures do.
			var fresh []heldLock
			s.scan(n.Body, &fresh)
			return false
		case *ast.IfStmt:
			s.ifStmt(n, held)
			return false
		case *ast.DeferStmt:
			s.deferredCall(n.Call, held)
			return false
		case *ast.GoStmt:
			s.spawnedCall(n.Call, held)
			return false
		case *ast.CallExpr:
			s.call(n, held)
			return true // descend: arguments may contain calls of their own
		}
		return true
	})
}

// ifStmt scans an if statement. A body that leaves — `mu.Unlock(); return`
// is the common shape — releases only on its own path, so the statements
// after the if still hold what it released; any other body is folded in
// linearly, like every other statement.
func (s *lockScanner) ifStmt(n *ast.IfStmt, held *[]heldLock) {
	if n.Init != nil {
		s.scan(n.Init, held)
	}
	s.scan(n.Cond, held)
	body := slices.Clone(*held)
	s.scan(n.Body, &body)
	if !s.leaves(n.Body) {
		*held = body
	}
	if n.Else != nil {
		s.scan(n.Else, held)
	}
}

// leaves reports whether a block ends in a return, a panic, or a branch
// (break, continue, goto) out of the statements that follow it.
func (s *lockScanner) leaves(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		fn, ok := s.info.Uses[id].(*types.Builtin)
		return ok && fn.Name() == "panic"
	}
	return false
}

// call processes one immediate (non-defer, non-go) call against the
// current held set.
func (s *lockScanner) call(call *ast.CallExpr, held *[]heldLock) {
	fn := calleeFunc(s.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "sync" {
		switch {
		case lockAcquireMethods[fn.Name()]:
			guard, ok := s.guardOf(call)
			if !ok {
				return
			}
			pos := s.fset.Position(call.Pos()).String()
			s.idx.Acquires[s.key] = appendNew(s.idx.Acquires[s.key], LockSite{Guard: guard, Pos: pos})
			for _, h := range *held {
				s.idx.LockEdges = appendNew(s.idx.LockEdges, LockEdge{Outer: h.guard, OuterPos: h.pos, Inner: guard, InnerPos: pos})
			}
			*held = append(*held, heldLock{guard: guard, pos: pos})
		case lockReleaseMethods[fn.Name()]:
			guard, ok := s.guardOf(call)
			if !ok {
				return
			}
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i].guard == guard {
					*held = append((*held)[:i], (*held)[i+1:]...)
					break
				}
			}
		}
		return
	}
	if !sameModule(s.modulePath(), fn.Pkg().Path()) {
		return
	}
	ckey := FuncKey(fn)
	s.idx.LockCalls[s.key] = appendNew(s.idx.LockCalls[s.key], ckey)
	pos := s.fset.Position(call.Pos()).String()
	for _, h := range *held {
		s.idx.HeldCalls = appendNew(s.idx.HeldCalls, HeldCall{Guard: h.guard, GuardPos: h.pos, Callee: ckey, CallPos: pos})
	}
}

// deferredCall processes `defer f(...)`. A deferred release keeps the
// guard held to the end of the body (so nothing pops). Deferred
// module-local calls run at return time, outside the body's critical
// sections, so they contribute a call edge but no held-call fact.
func (s *lockScanner) deferredCall(call *ast.CallExpr, held *[]heldLock) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		var fresh []heldLock
		s.scan(lit.Body, &fresh)
	} else if fn := calleeFunc(s.info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() != "sync" && sameModule(s.modulePath(), fn.Pkg().Path()) {
			s.idx.LockCalls[s.key] = appendNew(s.idx.LockCalls[s.key], FuncKey(fn))
		}
	}
	for _, arg := range call.Args { // arguments evaluate at the defer site
		s.scan(arg, held)
	}
}

// spawnedCall processes `go f(...)`. The new goroutine holds nothing, so
// the callee contributes a call edge only; arguments evaluate at the spawn
// site under the current held set.
func (s *lockScanner) spawnedCall(call *ast.CallExpr, held *[]heldLock) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		var fresh []heldLock
		s.scan(lit.Body, &fresh)
	} else if fn := calleeFunc(s.info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() != "sync" && sameModule(s.modulePath(), fn.Pkg().Path()) {
			s.idx.LockCalls[s.key] = appendNew(s.idx.LockCalls[s.key], FuncKey(fn))
		}
	}
	for _, arg := range call.Args {
		s.scan(arg, held)
	}
}

func (s *lockScanner) modulePath() string {
	if s.fn.Pkg() == nil {
		return ""
	}
	return s.fn.Pkg().Path()
}

// guardOf resolves the lock-class key of the mutex a sync method call
// targets. The receiver expression is call.Fun's qualifier:
//
//   - a value of a module-local named type (embedded mutex): pkg.Type
//   - a struct-field selection (x.mu):                       pkg.Type.field
//   - a package-level variable:                              pkg.name
//   - a function-local variable:                             func-key.name
func (s *lockScanner) guardOf(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv := ast.Unparen(sel.X)
	if named := namedOf(s.info.TypeOf(recv)); named != nil {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() != "sync" {
			return TypeKey(obj), true
		}
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if key, ok := fieldKey(s.info, r); ok {
			return key, true
		}
		if v, ok := s.info.Uses[r.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.Ident:
		v, ok := s.info.Uses[r].(*types.Var)
		if !ok {
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
		return s.key + "." + v.Name(), true
	}
	return "", false
}

// filePackage resolves the import path of the package a file belongs to
// through any top-level object the file declares.
func filePackage(f *ast.File, info *types.Info) string {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if obj := info.Defs[d.Name]; obj != nil && obj.Pkg() != nil {
				return obj.Pkg().Path()
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if obj := info.Defs[sp.Name]; obj != nil && obj.Pkg() != nil {
						return obj.Pkg().Path()
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if obj := info.Defs[name]; obj != nil && obj.Pkg() != nil {
							return obj.Pkg().Path()
						}
					}
				}
			}
		}
	}
	return ""
}

// sameModule reports whether two import paths share a root path segment —
// the "is this our code or the standard library" test for a repository
// with no external dependencies.
func sameModule(a, b string) bool {
	root := func(p string) string {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			return p[:i]
		}
		return p
	}
	return root(a) == root(b)
}
