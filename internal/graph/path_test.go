package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func pathFixture() (*Graph, Path) {
	g := New(4)
	g.AddEdge(0, 1, 1) // e0
	g.AddEdge(1, 2, 2) // e1
	g.AddEdge(2, 3, 3) // e2
	return g, Path{Nodes: []NodeID{0, 1, 2, 3}, Edges: []EdgeID{0, 1, 2}}
}

func TestPathBasics(t *testing.T) {
	g, p := pathFixture()
	if p.Src() != 0 || p.Dst() != 3 || p.Hops() != 3 || p.IsTrivial() {
		t.Errorf("basics wrong: %v", p)
	}
	if p.CostIn(g) != 6 {
		t.Errorf("CostIn = %v, want 6", p.CostIn(g))
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
	triv := Trivial(2)
	if !triv.IsTrivial() || triv.Src() != 2 || triv.Dst() != 2 || triv.CostIn(g) != 0 {
		t.Errorf("Trivial wrong: %v", triv)
	}
	if err := triv.Validate(g); err != nil {
		t.Errorf("trivial Validate: %v", err)
	}
}

func TestPathPredicates(t *testing.T) {
	_, p := pathFixture()
	if !p.IsSimple() {
		t.Error("simple path not simple")
	}
	loopy := Path{Nodes: []NodeID{0, 1, 0}, Edges: []EdgeID{0, 0}}
	if loopy.IsSimple() {
		t.Error("repeated node called simple")
	}
	if !p.HasEdge(1) || p.HasEdge(9) {
		t.Error("HasEdge")
	}
	if !p.HasNode(2) || p.HasNode(9) {
		t.Error("HasNode")
	}
	if !p.HasInteriorNode(1) || p.HasInteriorNode(0) || p.HasInteriorNode(3) {
		t.Error("HasInteriorNode")
	}
}

func TestPathValidateErrors(t *testing.T) {
	g, p := pathFixture()
	cases := map[string]Path{
		"empty":        {},
		"arity":        {Nodes: []NodeID{0, 1}, Edges: nil},
		"wrong edge":   {Nodes: []NodeID{0, 2}, Edges: []EdgeID{0}},
		"disconnected": {Nodes: []NodeID{0, 3}, Edges: []EdgeID{2}},
	}
	for name, bad := range cases {
		if err := bad.Validate(g); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// A failed edge invalidates the path in the failure view.
	fv := FailEdges(g, 1)
	if err := p.Validate(fv); err == nil {
		t.Error("path over failed edge validated")
	}
}

func TestPathValidateDirected(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 1, 1)
	fwd := Path{Nodes: []NodeID{0, 1}, Edges: []EdgeID{0}}
	rev := Path{Nodes: []NodeID{1, 0}, Edges: []EdgeID{0}}
	if err := fwd.Validate(g); err != nil {
		t.Errorf("forward: %v", err)
	}
	if err := rev.Validate(g); err == nil {
		t.Error("reverse direction validated on directed graph")
	}
}

func TestPathSubConcatReverseClone(t *testing.T) {
	g, p := pathFixture()
	sub := p.SubPath(1, 3)
	if sub.Src() != 1 || sub.Dst() != 3 || sub.Hops() != 2 {
		t.Errorf("SubPath = %v", sub)
	}
	whole := p.SubPath(0, 1).Concat(p.SubPath(1, 3))
	if !whole.Equal(p) {
		t.Error("split+concat != original")
	}
	rev := p.Reverse()
	if rev.Src() != 3 || rev.Dst() != 0 || rev.CostIn(g) != p.CostIn(g) {
		t.Errorf("Reverse = %v", rev)
	}
	cl := p.Clone()
	cl.Nodes[0] = 9
	if p.Nodes[0] == 9 {
		t.Error("Clone shares backing array")
	}
	if p.Equal(Path{Nodes: []NodeID{0}}) || p.Equal(rev) {
		t.Error("Equal false positives")
	}
}

func TestPathPanics(t *testing.T) {
	_, p := pathFixture()
	for name, f := range map[string]func(){
		"SubPath range":  func() { p.SubPath(2, 1) },
		"SubPath bounds": func() { p.SubPath(0, 9) },
		"Concat gap":     func() { p.Concat(Trivial(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPathStringAndKey(t *testing.T) {
	_, p := pathFixture()
	s := p.String()
	if !strings.Contains(s, "(e1)") || !strings.HasPrefix(s, "0") {
		t.Errorf("String = %q", s)
	}
	if (Path{}).String() != "<empty>" {
		t.Error("empty String")
	}
	if p.Key() == p.SubPath(0, 2).Key() {
		t.Error("distinct paths share a key")
	}
	if p.Key() != p.Clone().Key() {
		t.Error("clone key differs")
	}
	// Trivial paths at different nodes must have distinct keys.
	if Trivial(1).Key() == Trivial(2).Key() {
		t.Error("trivial keys collide")
	}
}

// fmtKey is Key as it was rendered before the strconv rewrite; the keys are
// persisted nowhere, but every LSP registry is indexed by them, so the
// rendering is pinned byte for byte.
func fmtKey(p Path) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", p.Nodes[0])
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "%d,", e)
	}
	fmt.Fprintf(&b, ":%d", p.Dst())
	return b.String()
}

func TestPathKeyFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return int32(rng.Intn(10))
		case 1:
			return int32(rng.Intn(100000))
		case 2:
			return math.MaxInt32 - int32(rng.Intn(3))
		default:
			return rng.Int31()
		}
	}
	paths := []Path{Trivial(0), Trivial(math.MaxInt32)}
	for i := 0; i < 500; i++ {
		hops := rng.Intn(40) // long enough to outgrow Key's stack buffer
		p := Path{Nodes: []NodeID{NodeID(id())}}
		for h := 0; h < hops; h++ {
			p.Nodes = append(p.Nodes, NodeID(id()))
			p.Edges = append(p.Edges, EdgeID(id()))
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		if got, want := p.Key(), fmtKey(p); got != want {
			t.Fatalf("Key() = %q, fmt rendering %q", got, want)
		}
	}
}

func TestFailViewAccessors(t *testing.T) {
	g, _ := pathFixture()
	fv := FailEdges(g, 0)
	if fv.Directed() || fv.Edge(1).W != 2 {
		t.Error("view accessors")
	}
	if fv.UnitWeights() {
		t.Error("weighted view claims unit")
	}
	u := New(2)
	u.AddEdge(0, 1, 1)
	if !FailEdges(u).UnitWeights() {
		t.Error("unit view lost flag")
	}
}
