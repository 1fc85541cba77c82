// Package analysis is rbpc's invariant checker suite: a small, self-
// contained go/analysis-style framework plus six custom analyzers that
// machine-check the hand-enforced invariants the online serving engine's
// correctness and performance claims rest on.
//
// The paper's "fast recovery" story (restoration answered from immutable
// epoch snapshots, allocation-free on the query path) only holds in
// production if invariants that would otherwise live in comments —
// "Snapshot is immutable after publish", "Route is 0 allocs/op", "trees is
// guarded by mu" — never regress. The analyzers turn those comments into
// machine-checked annotations:
//
//   - immutable  (//rbpc:immutable on a type): fields must not be written
//     outside constructor/build functions.
//   - guardedby  (//rbpc:guardedby mu on a field): accesses only in
//     functions that lock mu (intra-procedural; //rbpc:locked escape).
//   - lockorder: the module-wide mutex-acquisition graph (built from the
//     lock facts ScanPackage extracts) must be acyclic — no two lock
//     classes ever acquired in both orders.
//   - snapshotescape (//rbpc:epochscoped on a type): epoch-lifetime values
//     may be read anywhere but never stored into fields, globals, or
//     channels outside other epochscoped carriers.
//   - deterministic (//rbpc:deterministic on a function or package
//     clause): no map iteration, wall-clock reads, unseeded randomness,
//     or float formatting — replay-critical code stays bit-reproducible.
//   - allocprove (//rbpc:hotpath on a function): no value the compiler's
//     escape analysis (go tool compile -m=2) moves to the heap in its body,
//     so the no-alloc promise is compiler-verified.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library only,
// because this repository vendors no dependencies. Cross-package
// information (which types are immutable, which guards nest under which)
// flows through one string-keyed Index that AnalyzeModule builds over every
// package of the module before any analyzer runs. AnalyzeModule has one
// caller, TestModuleClean, so `go test ./...` is the suite's driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //rbpc:allow
	// suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run reports the analyzer's diagnostics for one package via
	// pass.Report.
	Run func(pass *Pass)
}

// All is the full suite in reporting order.
var All = []*Analyzer{
	Immutable, GuardedBy, LockOrder,
	SnapshotEscape, Deterministic, AllocProve,
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Escape is one escape-analysis verdict parsed from the compiler's
// -m=2 output: a value at File:Line:Col the compiler proved heap-bound.
type Escape struct {
	File string
	Line int
	Col  int
	// Msg is the compiler's own wording, e.g. "x escapes to heap" or
	// "moved to heap: x".
	Msg string
}

// Unit is one package's worth of checkable material: syntax, types, and
// (when the driver ran the compiler) escape-analysis verdicts.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Escapes holds the compiler's escape-analysis verdicts for the
	// unit's files. nil means escape analysis was not run (allocprove
	// skips); an empty non-nil slice means it ran and proved the unit
	// allocation-clean.
	Escapes []Escape
}

// Pass carries one analyzer's view of one unit.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Escapes mirrors Unit.Escapes (nil when escape analysis wasn't run).
	Escapes []Escape
	// Index holds annotations and facts for every package of the module.
	Index *Index

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //rbpc:allow comment on the
// same source line suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportPosf(p.Fset.Position(pos), format, args...)
}

// ReportPosf is Reportf for positions that did not come from this pass's
// FileSet (parsed back out of compiler output or lock facts).
func (p *Pass) ReportPosf(position token.Position, format string, args ...any) {
	if p.Index.allowed(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers runs each analyzer over the unit and returns the combined
// diagnostics sorted by position and deduplicated.
func RunAnalyzers(analyzers []*Analyzer, u *Unit, idx *Index) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			Escapes:  u.Escapes,
			Index:    idx,
			diags:    &diags,
		}
		a.Run(pass)
	}
	return SortDiags(diags)
}

// SortDiags sorts diagnostics by file, line, column, analyzer, and message,
// and drops exact duplicates, so output never depends on package load
// order.
func SortDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parsePosString parses a "file:line:col" (or "file:line") string back
// into a token.Position. Lock facts carry positions as strings; this is
// the inverse of Position.String for the paths this module produces.
func parsePosString(s string) token.Position {
	pos := token.Position{Filename: s}
	rest := s
	for i := 0; i < 2; i++ {
		c := strings.LastIndexByte(rest, ':')
		if c < 0 {
			break
		}
		n, err := strconv.Atoi(rest[c+1:])
		if err != nil {
			break
		}
		if pos.Line == 0 {
			pos.Line = n
		} else {
			pos.Column = pos.Line
			pos.Line = n
		}
		rest = rest[:c]
		pos.Filename = rest
	}
	return pos
}

// funcBodySpan returns the file and line range of a function body,
// for mapping position-keyed external facts (escape verdicts) back onto
// declarations.
func funcBodySpan(fset *token.FileSet, fd *ast.FuncDecl) (file string, from, to int) {
	start := fset.Position(fd.Pos())
	end := fset.Position(fd.End())
	return start.Filename, start.Line, end.Line
}
