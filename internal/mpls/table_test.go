package mpls

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"rbpc/internal/graph"
)

// TestILMEntriesSurviveRewrites: an entry a router hands out is a value.
// The entry ReplaceILM returns and an earlier ILMEntryFor read keep their
// Out after the row is replaced again, and after its LSP is torn down and
// the label reused by another LSP; a FECEntryFor read keeps its Stack across
// SetFEC, ClearFEC and the teardown of the LSP whose row it was. A table
// whose entries alias a per-router label column fails it.
func TestILMEntriesSurviveRewrites(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	path := pathOf(g, 0, 1, 2, 3)
	a, err := n.EstablishLSP(path)
	if err != nil {
		t.Fatal(err)
	}
	in := a.hopLabels[0] // a's label into router 1, which swaps it
	read, ok := n.Router(1).ILMEntryFor(in)
	if !ok {
		t.Fatal("no row for the LSP at router 1")
	}
	want := slices.Clone(read.Out)
	if !slices.Equal(want, a.hopLabels[1:2]) {
		t.Fatalf("row at router 1 pushes %v, want %v", want, a.hopLabels[1:2])
	}
	check := func(stage string, got []Label, want []Label) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: Out %v, want %v", stage, got, want)
		}
	}

	prev, err := n.ReplaceILM(1, in, ILMEntry{Out: []Label{-1}, OutEdge: LocalProcess})
	if err != nil {
		t.Fatal(err)
	}
	check("replaced: prev", prev.Out, want)
	check("replaced: earlier read", read.Out, want)
	patch, _ := n.Router(1).ILMEntryFor(in)
	if _, err := n.ReplaceILM(1, in, ILMEntry{Out: []Label{-2, -3}, OutEdge: LocalProcess}); err != nil {
		t.Fatal(err)
	}
	if now, _ := n.Router(1).ILMEntryFor(in); !slices.Equal(now.Out, []Label{-2, -3}) {
		t.Errorf("replaced twice: the row pushes %v, want [-2 -3]", now.Out)
	}
	check("replaced twice: prev", prev.Out, want)
	check("replaced twice: the first patch's read", patch.Out, []Label{-1})
	check("replaced twice: earlier read", read.Out, want)

	if err := n.TeardownLSP(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := n.EstablishLSP(graph.Path{Nodes: slices.Clone(path.Nodes), Edges: slices.Clone(path.Edges)})
	if err != nil {
		t.Fatal(err)
	}
	if b.hopLabels[0] != in {
		t.Fatalf("the new LSP took label %d at router 1, want the freed %d", b.hopLabels[0], in)
	}
	check("label reused: prev", prev.Out, want)
	check("label reused: earlier read", read.Out, want)
	check("label reused: the first patch's read", patch.Out, []Label{-1})
	if now, _ := n.Router(1).ILMEntryFor(in); now.LSP != b.ID || !slices.Equal(now.Out, b.hopLabels[1:2]) {
		t.Errorf("label reused: the row is %+v, want the new LSP's", now)
	}

	// The FEC: a slot naming an LSP, then a row held whole, then none.
	c, err := n.EstablishLSP(pathOf(g, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallFEC(4, c); err != nil {
		t.Fatal(err)
	}
	fe, ok := n.Router(0).FECEntryFor(4)
	if !ok || fe.OutEdge != LocalProcess {
		t.Fatalf("FEC row %+v, %v", fe, ok)
	}
	wantStack := []Label{c.SelfLabel()}
	check("FEC installed", fe.Stack, wantStack)
	n.SetFEC(0, 4, FECEntry{Stack: []Label{-1}, OutEdge: LocalProcess})
	check("FEC set", fe.Stack, wantStack)
	set, _ := n.Router(0).FECEntryFor(4)
	n.ClearFEC(0, 4)
	check("FEC cleared", fe.Stack, wantStack)
	check("FEC cleared: the set row's read", set.Stack, []Label{-1})
	if err := n.InstallFEC(4, c); err != nil {
		t.Fatal(err)
	}
	fe, _ = n.Router(0).FECEntryFor(4)
	if err := n.TeardownLSP(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := n.EstablishLSP(pathOf(g, 0, 1)); err != nil {
		t.Fatal(err)
	}
	check("FEC's LSP torn down: earlier read", fe.Stack, wantStack)
	if now, ok := n.Router(0).FECEntryFor(4); !ok || !slices.Equal(now.Stack, wantStack) || now.OutEdge != LocalProcess {
		t.Errorf("FEC's LSP torn down: the row is %+v, %v, want it kept", now, ok)
	}
	if err := n.InstallFEC(4, c); err == nil {
		t.Error("InstallFEC of a torn-down LSP accepted")
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestTableSlotLayout pins the router's tables: an ILM slot is 8 bytes and a
// FEC slot 4 on a 64-bit platform, neither holds a pointer, and reading any
// row — an LSP's self-row, swap, penultimate pop and egress pop, and a row
// held whole in a side table — allocates nothing.
func TestTableSlotLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	rt := reflect.TypeOf(Router{})
	for _, f := range []struct {
		name string
		size uintptr
	}{{"ilm", 8}, {"fec", 4}} {
		sf, ok := rt.FieldByName(f.name)
		if !ok {
			t.Fatalf("Router has no %s table", f.name)
		}
		slot := sf.Type.Elem()
		if slot.Size() != f.size {
			t.Errorf("a %s slot (%v) is %d bytes, want %d", f.name, slot, slot.Size(), f.size)
		}
		if hasPointers(slot) {
			t.Errorf("a %s slot (%v) holds a pointer", f.name, slot)
		}
	}

	g := line5()
	n := NewNetwork(g)
	a, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	php, err := n.EstablishLSPPHP(pathOf(g, 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	side, err := n.EstablishLSP(pathOf(g, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReplaceILM(4, side.SelfLabel(), ILMEntry{Out: []Label{a.SelfLabel()}, OutEdge: LocalProcess}); err != nil {
		t.Fatal(err)
	}
	if err := n.InstallFEC(3, a); err != nil {
		t.Fatal(err)
	}
	n.SetFEC(0, 4, FECEntry{Stack: []Label{7, 8}, OutEdge: LocalProcess})

	rows := []struct {
		name   string
		router graph.NodeID
		label  Label
		want   ILMEntry
	}{
		{"self", 0, a.SelfLabel(), ILMEntry{Out: []Label{a.hopLabels[0]}, OutEdge: a.Path.Edges[0], LSP: a.ID}},
		{"swap", 1, a.hopLabels[0], ILMEntry{Out: []Label{a.hopLabels[1]}, OutEdge: a.Path.Edges[1], LSP: a.ID}},
		{"php-pop", 3, php.hopLabels[1], ILMEntry{OutEdge: php.Path.Edges[2], LSP: php.ID}},
		{"egress-pop", 3, a.hopLabels[2], ILMEntry{OutEdge: LocalProcess, LSP: a.ID}},
		{"side", 4, side.SelfLabel(), ILMEntry{Out: []Label{a.SelfLabel()}, OutEdge: LocalProcess}},
	}
	for _, row := range rows {
		r := n.Router(row.router)
		if got, ok := r.ILMEntryFor(row.label); !ok || !sameEntry(got, row.want) {
			t.Errorf("%s: ILMEntryFor = %+v, %v, want %+v", row.name, got, ok, row.want)
		}
		if got := testing.AllocsPerRun(100, func() { r.ILMEntryFor(row.label) }); got != 0 {
			t.Errorf("%s: ILMEntryFor allocates %v times", row.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { n.ILMRow(row.router, row.label, nil) }); got != 0 {
			t.Errorf("%s: ILMRow allocates %v times", row.name, got)
		}
	}
	for _, fec := range []struct {
		name string
		dst  graph.NodeID
		want FECEntry
	}{
		{"slot", 3, FECEntry{Stack: []Label{a.SelfLabel()}, OutEdge: LocalProcess}},
		{"side", 4, FECEntry{Stack: []Label{7, 8}, OutEdge: LocalProcess}},
	} {
		r := n.Router(0)
		if got, ok := r.FECEntryFor(fec.dst); !ok || !slices.Equal(got.Stack, fec.want.Stack) || got.OutEdge != fec.want.OutEdge {
			t.Errorf("FEC %s: FECEntryFor = %+v, %v, want %+v", fec.name, got, ok, fec.want)
		}
		if got := testing.AllocsPerRun(100, func() { r.FECEntryFor(fec.dst) }); got != 0 {
			t.Errorf("FEC %s: FECEntryFor allocates %v times", fec.name, got)
		}
	}
}
