package paths

import (
	"math/rand"
	"testing"

	"rbpc/internal/graph"
)

// TestArcIndexListsEveryPathOnceEachWay: every stored path appears exactly
// once among the arcs out of its source and once among the arcs into its
// destination, with its stored cost and the far end as Peer, and each node's
// arcs run in base-set index order — the order a solve's first-offer
// tie-break reads them in.
func TestArcIndexListsEveryPathOnceEachWay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 12, 20, 4)
	var sources []graph.NodeID
	for i := 0; i < g.Order(); i++ {
		sources = append(sources, graph.NodeID(i))
	}
	ex := Corollary4Extend(FromSources(NewAllShortest(g), sources), g)
	ai := ex.ArcIndex()
	if ai != ex.ArcIndex() {
		t.Fatal("ArcIndex is not memoized")
	}
	for _, dir := range []struct {
		name      string
		arcs      func(graph.NodeID) []Arc
		here, far func(graph.Path) graph.NodeID
	}{
		{"out", ai.Out, graph.Path.Src, graph.Path.Dst},
		{"in", ai.In, graph.Path.Dst, graph.Path.Src},
	} {
		seen := make([]int, ex.Len())
		for u := 0; u < g.Order(); u++ {
			arcs := dir.arcs(graph.NodeID(u))
			for k, a := range arcs {
				p := ex.All()[a.Idx]
				if dir.here(p) != graph.NodeID(u) || dir.far(p) != graph.NodeID(a.Peer) {
					t.Fatalf("%s(%d)[%d]: path %d is %v, peer %d", dir.name, u, k, a.Idx, p, a.Peer)
				}
				if a.Cost != p.CostIn(g) || a.Cost != ex.CostAt(a.Idx) {
					t.Fatalf("%s(%d)[%d]: cost %v, path %d costs %v (stored %v)", dir.name, u, k, a.Cost, a.Idx, p.CostIn(g), ex.CostAt(a.Idx))
				}
				if k > 0 && arcs[k-1].Idx >= a.Idx {
					t.Fatalf("%s(%d): arcs %d,%d out of index order", dir.name, u, k-1, k)
				}
				seen[a.Idx]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("path %d listed %d times among the %s-arcs", i, c, dir.name)
			}
		}
	}

	// Add drops the memo: the next index lists the new path (an out-and-back
	// walk, which no shortest-path family holds).
	e := g.Edges()[0]
	extra := graph.Path{Nodes: []graph.NodeID{e.U, e.V, e.U}, Edges: []graph.EdgeID{e.ID, e.ID}}
	if !ex.Add(extra) {
		t.Fatal("the out-and-back walk was already stored")
	}
	if got := len(ex.ArcIndex().Out(extra.Src())); got != len(ai.Out(extra.Src()))+1 {
		t.Fatalf("after Add: %d arcs out of %d, want %d", got, extra.Src(), len(ai.Out(extra.Src()))+1)
	}
}

func TestDeadUnderIntoReusesScratch(t *testing.T) {
	g := square()
	ex := FromSources(NewAllShortest(g), []graph.NodeID{0, 1, 2, 3})
	fv := graph.FailEdges(g, 0)
	want := ex.DeadUnderInto(fv, nil)

	scratch := make([]bool, ex.Len())
	for i := range scratch {
		scratch[i] = true // stale garbage the call must clear
	}
	got := ex.DeadUnderInto(fv, scratch)
	if &got[0] != &scratch[0] {
		t.Error("DeadUnderInto did not reuse the provided scratch")
	}
	if len(got) != len(want) {
		t.Fatalf("mask length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mask[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Undersized scratch: must allocate, not panic or truncate.
	small := ex.DeadUnderInto(fv, make([]bool, 0, 1))
	for i := range want {
		if small[i] != want[i] {
			t.Fatalf("fresh mask[%d] = %v, want %v", i, small[i], want[i])
		}
	}
}
