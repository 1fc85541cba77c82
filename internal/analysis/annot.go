package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The //rbpc:* annotation vocabulary (see DESIGN.md §10):
//
//	//rbpc:immutable            on a type declaration
//	//rbpc:epochscoped          on a type declaration (epoch-lifetime values)
//	//rbpc:hotpath              on a function declaration
//	//rbpc:deterministic        on a function declaration or package clause
//	//rbpc:ctor                 on a function allowed to build annotated types
//	//rbpc:locked               on a function whose callers hold the guard
//	//rbpc:guardedby <field>    on a struct field
//	//rbpc:allow <checks> [-- reason]   trailing on a flagged line
//
// Annotations are directive comments (no space after //), so gofmt leaves
// them alone and they are excluded from rendered documentation.

// Index is the module-wide annotation and lock fact base the analyzers
// consult, keyed by strings independent of any one type-checking run:
//
//	type:      pkgpath.TypeName
//	function:  pkgpath.FuncName or pkgpath.RecvTypeName.MethodName
//	field:     pkgpath.StructName.fieldName
type Index struct {
	// Immutable marks types annotated //rbpc:immutable.
	Immutable map[string]bool
	// EpochScoped marks types annotated //rbpc:epochscoped: values live
	// exactly one epoch and may not be stored into fields, globals, or
	// channels of unscoped types (the snapshotescape invariant).
	EpochScoped map[string]bool
	// Hotpath marks functions annotated //rbpc:hotpath.
	Hotpath map[string]bool
	// Deterministic marks functions annotated //rbpc:deterministic.
	Deterministic map[string]bool
	// DeterministicPkg marks whole packages whose package clause carries
	// //rbpc:deterministic: every function in them is checked.
	DeterministicPkg map[string]bool
	// Ctor marks functions annotated //rbpc:ctor (build-phase writers).
	Ctor map[string]bool
	// Locked marks functions annotated //rbpc:locked (guard held by caller).
	Locked map[string]bool
	// Guard maps an annotated field to the name of its guarding mutex field.
	Guard map[string]string

	// Acquires maps a function to every sync.Mutex/RWMutex acquisition
	// site in its body (closures included — the function "may acquire"),
	// the raw material of the lockorder transitive closure.
	Acquires map[string][]LockSite
	// LockCalls maps a function to the module-local functions it calls —
	// the call edges lock acquisition flows through.
	LockCalls map[string][]string
	// LockEdges are direct nested acquisitions: Inner acquired at InnerPos
	// while Outer (acquired at OuterPos) was still held.
	LockEdges []LockEdge
	// HeldCalls are module-local calls made while a guard was held; the
	// lockorder analyzer expands them against the callees' transitive
	// acquisition sets.
	HeldCalls []HeldCall

	// allow maps "filename:line" to the analyzer names a //rbpc:allow
	// comment on that line suppresses.
	allow map[string][]string
	// allowUsed marks which (site, name) suppressions actually masked a
	// diagnostic, feeding the staleness audit.
	allowUsed map[string]map[string]bool
}

// LockSite is one mutex acquisition: the guard's index key and position.
type LockSite struct {
	Guard string
	Pos   string
}

// LockEdge is a direct acquired-while-held relation between two guards.
type LockEdge struct {
	Outer    string
	OuterPos string
	Inner    string
	InnerPos string
}

// HeldCall is a module-local call made while a guard was held.
type HeldCall struct {
	Guard    string
	GuardPos string
	Callee   string
	CallPos  string
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		Immutable:        map[string]bool{},
		EpochScoped:      map[string]bool{},
		Hotpath:          map[string]bool{},
		Deterministic:    map[string]bool{},
		DeterministicPkg: map[string]bool{},
		Ctor:             map[string]bool{},
		Locked:           map[string]bool{},
		Guard:            map[string]string{},
		Acquires:         map[string][]LockSite{},
		LockCalls:        map[string][]string{},
		allow:            map[string][]string{},
		allowUsed:        map[string]map[string]bool{},
	}
}

// appendNew appends x unless xs already holds it.
func appendNew[T comparable](xs []T, x T) []T {
	if slices.Contains(xs, x) {
		return xs
	}
	return append(xs, x)
}

func (idx *Index) allowed(pos token.Position, analyzer string) bool {
	site := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	for _, name := range idx.allow[site] {
		if name == analyzer || name == "all" {
			used := idx.allowUsed[site]
			if used == nil {
				used = map[string]bool{}
				idx.allowUsed[site] = used
			}
			used[name] = true
			return true
		}
	}
	return false
}

// AllowAudit is the staleness report of one //rbpc:allow name: the site
// ("file:line"), the analyzer name it names, and whether it suppressed
// any diagnostic during the run.
type AllowAudit struct {
	Site string
	Name string
	Used bool
}

// AuditAllows lists every //rbpc:allow name the index scanned with its
// usage. Meaningful only after the analyzers have run over every package
// whose allows the index holds (AnalyzeModule).
func (idx *Index) AuditAllows() []AllowAudit {
	var out []AllowAudit
	for site, names := range idx.allow {
		for _, name := range names {
			out = append(out, AllowAudit{Site: site, Name: name, Used: idx.allowUsed[site][name]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TypeKey returns the index key of a named type.
func TypeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// FuncKey returns the index key of a function or method.
func FuncKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// fieldKey returns the index key for the field selected by sel (x.f where f
// is a struct field), resolving the receiver's named type. It reports ok =
// false for non-field selections. Fields reached through embedding are
// keyed by the outermost named type, which is the annotation-carrying type
// in every use this repository has.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	named := namedOf(s.Recv())
	if named == nil {
		return "", false
	}
	return TypeKey(named.Obj()) + "." + sel.Sel.Name, true
}

// namedOf unwraps pointers and aliases down to the *types.Named beneath t,
// or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// ctorPrefixes are function-name prefixes treated as constructor/build
// functions: they may write fields of //rbpc:immutable types and may touch
// guarded fields of objects they are still building. Anything
// else needs an explicit //rbpc:ctor.
var ctorPrefixes = []string{"new", "build", "make", "compile"}

// IsCtor reports whether the function is a constructor/build function:
// annotated //rbpc:ctor or named with a conventional constructor prefix.
func (idx *Index) IsCtor(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if idx.Ctor[FuncKey(fn)] {
		return true
	}
	name := strings.ToLower(fn.Name())
	for _, p := range ctorPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// directive splits an //rbpc: comment into its verb and argument string,
// reporting ok = false for any other comment.
func directive(c *ast.Comment) (verb, args string, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//rbpc:")
	if !found {
		return "", "", false
	}
	verb, args, _ = strings.Cut(text, " ")
	return verb, strings.TrimSpace(args), true
}

// groupDirectives yields the directives of the given comment groups.
func groupDirectives(groups ...*ast.CommentGroup) [][2]string {
	var out [][2]string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if verb, args, ok := directive(c); ok {
				out = append(out, [2]string{verb, args})
			}
		}
	}
	return out
}

// ScanPackage records the package's annotations, //rbpc:allow
// suppressions and lock facts into idx. It must run for every package
// before any analyzer runs at all.
func ScanPackage(fset *token.FileSet, files []*ast.File, info *types.Info, idx *Index) {
	for _, f := range files {
		scanAllows(fset, f, idx)
		scanDecls(f, info, idx)
		scanLockFacts(fset, f, info, idx)
	}
}

func scanAllows(fset *token.FileSet, f *ast.File, idx *Index) {
	for _, g := range f.Comments {
		for _, c := range g.List {
			verb, args, ok := directive(c)
			if !ok || verb != "allow" {
				continue
			}
			names, _, _ := strings.Cut(args, "--") // strip trailing reason
			pos := fset.Position(c.Pos())
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, n := range strings.Split(names, ",") {
				if n = strings.TrimSpace(n); n != "" {
					idx.allow[key] = append(idx.allow[key], n)
				}
			}
		}
	}
}

func scanDecls(f *ast.File, info *types.Info, idx *Index) {
	// A //rbpc:deterministic directive on the package clause marks every
	// function of the package.
	for _, dir := range groupDirectives(f.Doc) {
		if dir[0] == "deterministic" {
			if pkg := filePackage(f, info); pkg != "" {
				idx.DeterministicPkg[pkg] = true
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn, _ := info.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			for _, dir := range groupDirectives(d.Doc) {
				switch dir[0] {
				case "hotpath":
					idx.Hotpath[FuncKey(fn)] = true
				case "deterministic":
					idx.Deterministic[FuncKey(fn)] = true
				case "ctor":
					idx.Ctor[FuncKey(fn)] = true
				case "locked":
					idx.Locked[FuncKey(fn)] = true
				}
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, _ := info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				// A declaration group's doc applies to a lone spec.
				docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
				if len(d.Specs) == 1 {
					docs = append(docs, d.Doc)
				}
				for _, dir := range groupDirectives(docs...) {
					switch dir[0] {
					case "immutable":
						idx.Immutable[TypeKey(tn)] = true
					case "epochscoped":
						idx.EpochScoped[TypeKey(tn)] = true
					}
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					scanFields(tn, st, idx)
				}
			}
		}
	}
}

func scanFields(tn *types.TypeName, st *ast.StructType, idx *Index) {
	for _, field := range st.Fields.List {
		for _, dir := range groupDirectives(field.Doc, field.Comment) {
			if dir[0] != "guardedby" || dir[1] == "" {
				continue
			}
			for _, name := range field.Names {
				idx.Guard[TypeKey(tn)+"."+name.Name] = dir[1]
			}
		}
	}
}

// calleeFunc resolves the statically known *types.Func a call targets
// (package function or method), or nil for builtins, conversions, and
// calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// forEachFunc visits every function declaration with a body, pairing the
// syntax with its type object. Analyzers drive their per-function walks
// from here; FuncLits belong to the enclosing declaration.
func forEachFunc(files []*ast.File, info *types.Info, visit func(fn *types.Func, decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			visit(fn, fd)
		}
	}
}
