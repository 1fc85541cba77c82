package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath checks that functions annotated //rbpc:hotpath — the snapshot
// query path, the SSSP kernel inner loops, the forwarding-table lookups —
// contain no allocating constructs and only call other hotpath or
// allowlisted functions. This is the machine-checked form of the engine's
// "0 allocs/op" benchmark claim: the benchmark proves it for one workload,
// the analyzer proves the property can't silently leak back in on any
// path.
//
// Flagged constructs:
//
//   - make, new, and heap composite literals (&T{...}, []T{...}, map lits)
//   - append (may grow; suppress with //rbpc:allow hotpath where capacity
//     is preallocated and growth is amortized away)
//   - map index writes
//   - string concatenation and string<->[]byte/[]rune conversions
//   - closures that capture variables (the capture forces a heap context)
//   - go statements
//   - calls that are not to a //rbpc:hotpath function, an allowlisted
//     stdlib function, or a builtin from the free list; dynamic calls
//     (interface methods, function values) are always flagged because the
//     callee cannot be verified
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "//rbpc:hotpath functions must not allocate and may only call hotpath or allowlisted functions",
	Run:  runHotpath,
}

// hotpathStdlibPkgs are stdlib packages every function of which is
// allocation-free and callable from a hot path.
var hotpathStdlibPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// hotpathStdlibFuncs are individually allowlisted stdlib functions.
var hotpathStdlibFuncs = map[string]bool{
	"time.Now":   true, // nanotime, no allocation
	"time.Since": true,
	// Over a table built once (crc32.MakeTable at package init): a loop
	// over the slice, or the CRC32 instruction; no allocation.
	"hash/crc32.Checksum": true,
}

// hotpathBuiltins are builtins that never allocate.
var hotpathBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true,
	"min": true, "max": true, "real": true, "imag": true,
	"panic": true, // cold failure path by definition
	"print": true, "println": true, "recover": true, "close": true,
}

func runHotpath(pass *Pass) {
	forEachFunc(pass.Files, pass.Info, func(fn *types.Func, fd *ast.FuncDecl) {
		if !pass.Index.Hotpath[FuncKey(fn)] {
			return
		}
		checkHotpathBody(pass, fd.Body)
	})
}

func checkHotpathBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if capturesVariables(pass.Info, e) {
				pass.Reportf(e.Pos(), "closure captures variables (allocates its context)")
			}
			return false // the literal's body runs outside this audit
		case *ast.GoStmt:
			pass.Reportf(e.Pos(), "go statement spawns a goroutine on a hot path")
		case *ast.CallExpr:
			checkHotpathCall(pass, e)
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(e)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(e.Pos(), "%s composite literal allocates", kindName(t))
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := pass.Info.TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(lhs.Pos(), "map write may allocate")
						}
					}
				}
			}
			if e.Tok == token.ADD_ASSIGN && isString(pass.Info.TypeOf(e.Lhs[0])) {
				pass.Reportf(e.Pos(), "string concatenation allocates")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(pass.Info.TypeOf(e)) {
				pass.Reportf(e.Pos(), "string concatenation allocates")
			}
		}
		return true
	})
}

func checkHotpathCall(pass *Pass, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "append may grow its backing array")
			case "make", "new":
				pass.Reportf(call.Pos(), "%s allocates", b.Name())
			default:
				if !hotpathBuiltins[b.Name()] {
					pass.Reportf(call.Pos(), "builtin %s is not hotpath-safe", b.Name())
				}
			}
			return
		}
	}

	// Conversions: only string<->byte/rune-slice conversions allocate.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			from, to := pass.Info.TypeOf(call.Args[0]), tv.Type
			if (isString(from) && isSlice(to)) || (isSlice(from) && isString(to)) {
				pass.Reportf(call.Pos(), "string/slice conversion allocates")
			}
		}
		return
	}

	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "dynamic call through a function value cannot be verified hotpath-safe")
		return
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			pass.Reportf(call.Pos(), "interface method call %s cannot be verified hotpath-safe", fn.Name())
			return
		}
		// Methods of the typed atomics are the sanctioned lock-free reads.
		if named := namedOf(recv.Type()); named != nil &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" {
			return
		}
	}
	if fn.Pkg() == nil {
		return // error.Error and friends from the universe scope
	}
	key := FuncKey(fn)
	if sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
		if !pass.Index.Hotpath[key] {
			pass.Reportf(call.Pos(), "call to non-hotpath function %s", key)
		}
		return
	}
	if hotpathStdlibPkgs[fn.Pkg().Path()] || hotpathStdlibFuncs[key] {
		return
	}
	pass.Reportf(call.Pos(), "call to non-allowlisted function %s", key)
}

// capturesVariables reports whether the literal references any variable
// declared outside itself (excluding package-level variables, which need
// no closure context).
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
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

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
