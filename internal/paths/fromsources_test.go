package paths

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

// perPair is the reference FromSources: the set built pair by pair, the
// way it was before the builder read the trees — b.Between for every
// destination of every source, in order, through Add.
func perPair(b Base, sources []graph.NodeID) *Explicit {
	ex := NewExplicit(b.View())
	for _, s := range sources {
		for d := 0; d < b.View().Order(); d++ {
			if p, ok := b.Between(s, graph.NodeID(d)); ok && graph.NodeID(d) != s {
				ex.Add(p)
			}
		}
	}
	return ex
}

// reweighted is g with the same links, in the same order, at random
// fractional weights in [1, 5).
func reweighted(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := graph.New(g.Order())
	for _, e := range g.Edges() {
		out.AddEdge(e.U, e.V, 1+4*rng.Float64())
	}
	return out
}

// TestFromSourcesMatchesPerPair: FromSources, which walks each source's
// tree once into the set's slabs and a dense head row, builds exactly the
// set the per-pair reference builds (perPair) — on the AS stand-in, a
// Waxman graph at fractional weights, the padded-unique base over it, and
// hot sets listed out of order or twice — and so do the sets grown from it:
// its 1-hop paths added, its SubpathClosure and its Corollary4Extend.
// Checked: every path in order, its cost bits, and for every pair
// IndexBetween, Contains of every stored path, PairHeads,
// IndicesThroughEdge, ArcIndex and EdgeComplete.
func TestFromSourcesMatchesPerPair(t *testing.T) {
	as := topology.PaperAS(1, 0.05)
	waxman := reweighted(topology.Waxman(40, 0.8, 0.5, 3), 5)
	every := func(g *graph.Graph) []graph.NodeID {
		src := make([]graph.NodeID, g.Order())
		for i := range src {
			src[i] = graph.NodeID(i)
		}
		return src
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		base    TreeBase
		sources []graph.NodeID
	}{
		{"as-0.05", as, NewAllShortest(as), every(as)},
		{"as-0.05/hot-set", as, NewAllShortest(as), []graph.NodeID{200, 7, 0, 31, 5, 236}},
		{"waxman-weighted", waxman, NewAllShortest(waxman), every(waxman)},
		{"waxman-weighted/unique", waxman, NewUniqueShortest(waxman), every(waxman)},
		{"waxman-weighted/hot-set", waxman, NewUniqueShortest(waxman), []graph.NodeID{33, 2, 17, 9}},
		{"waxman-weighted/repeated", waxman, NewAllShortest(waxman), []graph.NodeID{4, 11, 4, 30, 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := FromSources(tc.base, tc.sources), perPair(tc.base, tc.sources)
			if err := sameSet(tc.g, got, want); err != nil {
				t.Fatalf("FromSources: %v", err)
			}
			if err := sameSet(tc.g, SubpathClosure(got), SubpathClosure(want)); err != nil {
				t.Fatalf("SubpathClosure: %v", err)
			}
			if err := sameSet(tc.g, Corollary4Extend(got, tc.g), Corollary4Extend(want, tc.g)); err != nil {
				t.Fatalf("Corollary4Extend: %v", err)
			}
			for _, e := range tc.g.Edges() {
				for _, ex := range []*Explicit{got, want} {
					ex.Add(EdgePath(tc.g, e.ID, e.U))
					ex.Add(EdgePath(tc.g, e.ID, e.V))
				}
			}
			if err := sameSet(tc.g, got, want); err != nil {
				t.Fatalf("with the 1-hop paths: %v", err)
			}
			if !got.EdgeComplete() {
				t.Fatal("the set with every 1-hop path is not EdgeComplete")
			}
		})
	}
}

// sameSet compares got with the reference want: paths in order and their
// cost bits, and every index, pair by pair, link by link and node by node.
func sameSet(g *graph.Graph, got, want *Explicit) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d paths, the reference %d", got.Len(), want.Len())
	}
	for i, p := range want.All() {
		gc, wc := got.CostAt(int32(i)), want.CostAt(int32(i))
		if !got.All()[i].Equal(p) || math.Float64bits(gc) != math.Float64bits(wc) {
			return fmt.Errorf("path %d is %v at %v, the reference's %v at %v", i, got.All()[i], gc, p, wc)
		}
		if !got.Contains(p) {
			return fmt.Errorf("Contains(%v) = false for stored path %d", p, i)
		}
	}
	n := g.Order()
	for s := graph.NodeID(0); int(s) < n; s++ {
		for d := graph.NodeID(0); int(d) < n; d++ {
			gi, gok := got.IndexBetween(s, d)
			wi, wok := want.IndexBetween(s, d)
			if gi != wi || gok != wok {
				return fmt.Errorf("IndexBetween(%d, %d) = %d, %v; the reference's %d, %v", s, d, gi, gok, wi, wok)
			}
		}
	}
	if !slices.Equal(got.PairHeads(), want.PairHeads()) {
		return fmt.Errorf("PairHeads differ")
	}
	for e := 0; e < g.Size(); e++ {
		if gl, wl := got.IndicesThroughEdge(graph.EdgeID(e)), want.IndicesThroughEdge(graph.EdgeID(e)); !slices.Equal(gl, wl) {
			return fmt.Errorf("IndicesThroughEdge(%d) = %v, the reference's %v", e, gl, wl)
		}
	}
	gai, wai := got.ArcIndex(), want.ArcIndex()
	for u := graph.NodeID(0); int(u) < n; u++ {
		if !slices.Equal(gai.Out(u), wai.Out(u)) || !slices.Equal(gai.In(u), wai.In(u)) {
			return fmt.Errorf("ArcIndex at %d differs", u)
		}
	}
	if got.EdgeComplete() != want.EdgeComplete() {
		return fmt.Errorf("EdgeComplete() = %v, the reference's %v", got.EdgeComplete(), want.EdgeComplete())
	}
	return nil
}
