package paths

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// tree once into slabs and a dense head row, a range of sources per
// goroutine, builds exactly the set the per-pair reference builds (perPair)
// at GOMAXPROCS 1, 2 and 4 — on the AS stand-in, a Waxman graph at
// fractional weights, the padded-unique base over it, hot sets listed out
// of order or twice, and a disconnected graph whose sources reach different
// numbers of nodes, so that the ranges leave gaps to close — and so do the
// sets grown from it: its 1-hop paths added, its SubpathClosure and its
// Corollary4Extend. Checked: every path in order, its cost bits, and for
// every pair IndexBetween, Contains of every stored path, PairHeads,
// IndicesThroughEdge, ArcIndex and EdgeComplete.
func TestFromSourcesMatchesPerPair(t *testing.T) {
	as := topology.PaperAS(1, 0.05)
	waxman := reweighted(topology.Waxman(40, 0.8, 0.5, 3), 5)
	split := islands()
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
		{"islands", split, NewAllShortest(split), every(split)},
		{"islands/hot-set", split, NewUniqueShortest(split), []graph.NodeID{12, 17, 3, 19, 15, 0, 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newReference(tc.g, tc.base, tc.sources)
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					ref.check(t, FromSources(tc.base, tc.sources))
				})
			}
		})
	}
}

// islands is a 20-node graph of five components, which a source reaches 9,
// 4, 1 or 0 nodes of: a weighted 10-ring with chords, a 5-node path, two
// single links and an isolated node between them.
func islands() *graph.Graph {
	g := graph.New(20)
	for u := 0; u < 10; u++ {
		g.AddEdge(graph.NodeID(u), graph.NodeID((u+1)%10), float64(1+u%3))
	}
	g.AddEdge(0, 5, 2)
	g.AddEdge(2, 7, 1)
	for u := 10; u < 14; u++ {
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1), 1)
	}
	g.AddEdge(15, 16, 1)
	g.AddEdge(18, 19, 3)
	return g
}

// reference holds the per-pair reference's set for one case and the sets
// grown from it, built once for the case's rows.
type reference struct {
	g                        *graph.Graph
	set, closure, ext, edges *Explicit
}

// newReference builds the per-pair reference for FromSources(base, sources)
// over g: the set, its SubpathClosure, its Corollary4Extend and the set with
// every 1-hop path added.
func newReference(g *graph.Graph, base TreeBase, sources []graph.NodeID) *reference {
	r := &reference{g: g, set: perPair(base, sources), edges: perPair(base, sources)}
	r.closure, r.ext = SubpathClosure(r.set), Corollary4Extend(r.set, g)
	addEdges(g, r.edges)
	return r
}

// addEdges adds the 1-hop path over every link of g, both ways, to ex.
func addEdges(g *graph.Graph, ex *Explicit) {
	for _, e := range g.Edges() {
		ex.Add(EdgePath(g, e.ID, e.U))
		ex.Add(EdgePath(g, e.ID, e.V))
	}
}

// check fails unless got, built by FromSources, and the sets grown from it
// are the reference's.
func (r *reference) check(t *testing.T, got *Explicit) {
	t.Helper()
	if err := sameSet(r.g, got, r.set); err != nil {
		t.Fatalf("FromSources: %v", err)
	}
	if err := sameSet(r.g, SubpathClosure(got), r.closure); err != nil {
		t.Fatalf("SubpathClosure: %v", err)
	}
	if err := sameSet(r.g, Corollary4Extend(got, r.g), r.ext); err != nil {
		t.Fatalf("Corollary4Extend: %v", err)
	}
	addEdges(r.g, got)
	if err := sameSet(r.g, got, r.edges); err != nil {
		t.Fatalf("with the 1-hop paths: %v", err)
	}
	if !got.EdgeComplete() {
		t.Fatal("the set with every 1-hop path is not EdgeComplete")
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
