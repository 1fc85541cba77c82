package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// AllocProve checks every //rbpc:hotpath claim against the compiler's own
// escape analysis: the `go tool compile -m=2` verdicts ("escapes to heap",
// "moved to heap") parsed by the driver. A value the compiler heap-allocates
// inside a hotpath function is reported whether or not any allocating
// syntax appears (a local whose address escapes, a literal returned by
// pointer, a make of unknown size, the body of an inlined callee), and a
// make() the compiler proves stack-bound is not a finding. What it cannot
// see is an allocation inside a callee that is not inlined — a dynamic call
// or a large helper; the allocation tests of the served path
// (TestQueryZeroAllocs, BenchmarkSnapshotRoute, TestSubmitBatchAllocs)
// cover those.
//
// Crash paths are exempt: an escape that only feeds a panic (the
// argument of a panic call, or anything inside an unconditional panic
// wrapper like pqueue.panicf) does not violate the no-alloc promise —
// the promise is about the success path, and the benchmarks that pin
// 0 allocs/op never take the crash path either.
//
// When the driver did not run the compiler (Unit.Escapes == nil, e.g. a
// fixture loaded without escape collection), the analyzer is silent
// rather than wrong.
var AllocProve = &Analyzer{
	Name: "allocprove",
	Doc:  "//rbpc:hotpath functions must be free of compiler-proven heap allocations",
	Run:  runAllocProve,
}

func runAllocProve(pass *Pass) {
	if pass.Escapes == nil || len(pass.Index.Hotpath) == 0 {
		return
	}
	wrappers := panicWrappers(pass)
	forEachFunc(pass.Files, pass.Info, func(fn *types.Func, decl *ast.FuncDecl) {
		if !pass.Index.Hotpath[FuncKey(fn)] || decl.Body == nil || wrappers[FuncKey(fn)] {
			return
		}
		file, from, to := funcBodySpan(pass.Fset, decl)
		exempt := panicSpans(pass, decl, wrappers)
		for _, e := range pass.Escapes {
			if e.Line < from || e.Line > to || !escapeFileMatches(e.File, file) {
				continue
			}
			if exempt[e.Line] {
				continue // the allocation only feeds a panic
			}
			// Anchor the report on the FileSet's own path so //rbpc:allow
			// suppression sites (keyed by parsed filename) line up.
			pass.ReportPosf(token.Position{Filename: file, Line: e.Line, Column: e.Col},
				"compiler-proven allocation in hotpath %s: %s", FuncKey(fn), e.Msg)
		}
	})
}

// panicWrappers finds this package's unconditional panic helpers: a
// function with no results whose body's final statement is a panic call
// (e.g. a panicf that formats and dies). Their allocations, and their
// call sites' argument allocations, are crash-path only.
func panicWrappers(pass *Pass) map[string]bool {
	wrappers := map[string]bool{}
	forEachFunc(pass.Files, pass.Info, func(fn *types.Func, decl *ast.FuncDecl) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() > 0 || len(decl.Body.List) == 0 {
			return
		}
		last, ok := decl.Body.List[len(decl.Body.List)-1].(*ast.ExprStmt)
		if !ok {
			return
		}
		if call, ok := last.X.(*ast.CallExpr); ok && isPanicCall(pass, call, nil) {
			wrappers[FuncKey(fn)] = true
		}
	})
	return wrappers
}

// panicSpans returns the set of source lines inside decl that belong to a
// panic call (the call and its arguments), including calls to this
// package's panic wrappers.
func panicSpans(pass *Pass, decl *ast.FuncDecl, wrappers map[string]bool) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPanicCall(pass, call, wrappers) {
			return true
		}
		from := pass.Fset.Position(call.Pos()).Line
		to := pass.Fset.Position(call.End()).Line
		for l := from; l <= to; l++ {
			lines[l] = true
		}
		return true
	})
	return lines
}

// isPanicCall reports whether call is the builtin panic or (when wrappers
// is non-nil) a call to a known panic wrapper.
func isPanicCall(pass *Pass, call *ast.CallExpr, wrappers map[string]bool) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
			return true
		}
	}
	if wrappers == nil {
		return false
	}
	fn := calleeFunc(pass.Info, call)
	return fn != nil && wrappers[FuncKey(fn)]
}

// escapeFileMatches compares a compiler-reported filename with a
// FileSet filename, tolerating ./-relative vs. absolute spellings.
func escapeFileMatches(escFile, fsetFile string) bool {
	return escFile == fsetFile || filepath.Base(escFile) == filepath.Base(fsetFile)
}
