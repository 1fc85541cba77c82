package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestModuleClean is the suite's one driver: it runs every analyzer over
// the real module — the compiler's escape analysis for allocprove and the
// //rbpc:allow staleness audit included — so a plain `go test ./...`
// enforces the annotated invariants. It is the regression test for every
// finding the suite has ever flagged: reintroducing one (an unprotected
// snapshot-field write, an allocation in a hotpath function, a lock-order
// inversion, a stored epoch-scoped snapshot, a map range in replay-critical
// code) fails this test.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module analysis in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeModule(root)
	if err != nil {
		t.Fatalf("analyzing module: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	for _, a := range res.StaleAllows {
		t.Errorf("stale suppression: //rbpc:allow %s at %s suppresses nothing", a.Name, a.Site)
	}
}

// TestSortDiags pins the deterministic-diagnostics contract: output is
// ordered by position (file, line, column), ties broken by analyzer then
// message, and exact duplicates collapse to one.
func TestSortDiags(t *testing.T) {
	d := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	in := []Diagnostic{
		d("b.go", 2, 1, "guardedby", "m"),
		d("a.go", 9, 3, "lockorder", "n"),
		d("a.go", 9, 3, "lockorder", "n"), // exact duplicate: dropped
		d("a.go", 9, 1, "deterministic", "q"),
		d("a.go", 9, 1, "allocprove", "q"), // same position: analyzer breaks the tie
		d("a.go", 2, 7, "immutable", "z"),
	}
	got := SortDiags(in)
	want := []Diagnostic{
		d("a.go", 2, 7, "immutable", "z"),
		d("a.go", 9, 1, "allocprove", "q"),
		d("a.go", 9, 1, "deterministic", "q"),
		d("a.go", 9, 3, "lockorder", "n"),
		d("b.go", 2, 1, "guardedby", "m"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
