package spath

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

func treesEqualBits(a, b *Tree) bool {
	if a.Source != b.Source || len(a.dist) != len(b.dist) {
		return false
	}
	for v := range a.dist {
		if math.Float64bits(a.dist[v]) != math.Float64bits(b.dist[v]) ||
			a.hops[v] != b.hops[v] || a.parent[v] != b.parent[v] || a.parentE[v] != b.parentE[v] {
			return false
		}
	}
	return true
}

// scanUsesEdge reports whether id is the parent edge of some node of t.
func scanUsesEdge(t *Tree, id graph.EdgeID) bool {
	for _, pe := range t.parentE {
		if pe == id {
			return true
		}
	}
	return false
}

// hopTieGraph has equal-cost alternatives that differ only in hop count: a
// ladder whose rungs cost 1 and whose rails cost 2, closed by weight-2 and
// weight-3 chords, so d(u,v) is routinely attained by paths of different
// lengths and the hop count decides the parent.
func hopTieGraph(rng *rand.Rand) *graph.Graph {
	const n = 40
	g := graph.New(n)
	for i := 0; i+2 < n; i += 2 {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+2), 2)
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i+3), 2)
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i+2), 1)
	}
	for i := 0; i < 30; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, float64(2+rng.Intn(2)))
		}
	}
	return g
}

// multigraph doubles a third of a random graph's edges with equal-weight
// parallel twins.
func multigraph(rng *rand.Rand) *graph.Graph {
	g := randomConnected(rng, 50, 40, intWeights(rng, 3))
	for _, e := range append([]graph.Edge(nil), g.Edges()...) {
		if rng.Intn(3) == 0 {
			g.AddEdge(e.U, e.V, e.W)
		}
	}
	return g
}

// TestDerivedTreeMatchesCompute: over seeded (root, 1–4 failed links), a
// derived oracle's tree equals Compute on the failed view in all four
// arrays (distances by bit pattern), and so does its row derived into a
// solver's scratch (Row, asked before the tree is memoized), on every graph
// shape where the repair could plausibly differ; a root whose pristine tree
// avoids the failed set gets the pristine *Tree itself; cut bridges leave
// their orphans exactly as newTree leaves an unreached node.
func TestDerivedTreeMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"AS-unit", topology.PaperAS(1, 0.05)},
		{"ISP-weighted", topology.PaperISP(1)},
		{"multigraph", multigraph(rng)},
		{"hop-ties", hopTieGraph(rng)},
		// A tree plus a handful of chords: most links are bridges.
		{"bridges", randomConnected(rng, 60, 6, intWeights(rng, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			pristine := NewOracle(g)
			sv := NewSolver(0)
			shared, repaired, cutOff := 0, 0, 0
			for i := 0; i < draws; i++ {
				failed := make([]graph.EdgeID, 1+rng.Intn(4))
				for j := range failed {
					failed[j] = graph.EdgeID(rng.Intn(g.Size()))
				}
				fv := graph.FailEdges(g, failed...)
				root := graph.NodeID(rng.Intn(g.Order()))
				if i%2 == 0 {
					// Bias half the draws to roots next to a failed link,
					// where the orphaned subtree is largest.
					root = g.Edge(failed[0]).U
				}
				o := pristine.Derive(fv)
				if o.derive == nil {
					t.Fatal("Derive fell back to Compute on an edge-only failure view")
				}
				want := Compute(fv, root)
				row := o.Row(root, sv)
				for v := range want.dist {
					if math.Float64bits(row[v]) != math.Float64bits(want.dist[v]) {
						t.Fatalf("root %d failed %v: derived row at %d = %v, Compute says %v", root, failed, v, row[v], want.dist[v])
					}
				}
				if len(row) != len(want.dist) || o.CachedTrees() != 0 {
					t.Fatalf("root %d failed %v: row of %d nodes for %d, %d trees memoized", root, failed, len(row), len(want.dist), o.CachedTrees())
				}
				got := o.Tree(root)
				if !treesEqualBits(got, want) {
					t.Fatalf("root %d failed %v: derived tree differs from Compute", root, failed)
				}
				uses := false
				for _, f := range failed {
					uses = uses || scanUsesEdge(pristine.Tree(root), f)
				}
				if !uses {
					shared++
					if got != pristine.Tree(root) {
						t.Fatalf("root %d failed %v: tree avoids the failed set but is not the pristine tree itself", root, failed)
					}
					continue
				}
				repaired++
				for v := range got.dist {
					if pristine.Tree(root).Reached(graph.NodeID(v)) && !got.Reached(graph.NodeID(v)) {
						cutOff++
						if got.hops[v] != 0 || got.parent[v] != -1 || got.parentE[v] != -1 {
							t.Fatalf("root %d failed %v: cut-off node %d keeps a stale label", root, failed, v)
						}
					}
				}
			}
			if shared == 0 || repaired == 0 {
				t.Fatalf("vacuous: %d shared, %d repaired draws", shared, repaired)
			}
			if tc.name == "bridges" && cutOff == 0 {
				t.Fatal("vacuous: no failed set cut a bridge")
			}
		})
	}
}

// TestDeriveFallsBack: views the repair does not model — removed nodes, a
// padded view, a directed graph, a pristine oracle over some other graph or
// one that is itself derived — get a computing oracle, and its trees still
// match Compute.
func TestDeriveFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomConnected(rng, 40, 50, intWeights(rng, 3))
	other := randomConnected(rng, 40, 50, intWeights(rng, 3))
	dg := graph.NewDirected(4)
	dg.AddEdge(0, 1, 1)
	dg.AddEdge(1, 2, 1)
	dg.AddEdge(2, 3, 1)
	dg.AddEdge(0, 3, 5)

	pristine := NewOracle(g)
	fv := graph.FailEdges(g, 1, 2)
	for _, tc := range []struct {
		name string
		from *Oracle
		view graph.View
	}{
		{"removed-node", pristine, graph.Fail(g, []graph.EdgeID{1}, []graph.NodeID{5})},
		{"padded", pristine, Padded(fv, PaddingFor(g))},
		{"directed", NewOracle(dg), graph.FailEdges(dg, 1)},
		{"other-graph", NewOracle(other), fv},
		{"already-failed", NewOracle(graph.FailEdges(g, 7)), fv},
		{"derived-from-derived", pristine.Derive(fv), graph.FailEdges(g, 1, 2, 3)},
	} {
		o := tc.from.Derive(tc.view)
		if o.derive != nil {
			t.Errorf("%s: Derive did not fall back", tc.name)
		}
		for s := 0; s < tc.view.Order(); s++ {
			if !treesEqualBits(o.Tree(graph.NodeID(s)), Compute(tc.view, graph.NodeID(s))) {
				t.Errorf("%s: root %d differs from Compute", tc.name, s)
			}
		}
	}
}

// TestDerivedOracleCappedPristine: with the pristine oracle capped far
// below the number of roots asked, derivation keeps matching Compute — an
// evicted pristine tree is recomputed (and laid out again) on demand.
func TestDerivedOracleCappedPristine(t *testing.T) {
	g := topology.PaperISP(2)
	pristine := NewOracle(g)
	pristine.SetCap(4)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20; i++ {
		fv := graph.FailEdges(g, graph.EdgeID(rng.Intn(g.Size())), graph.EdgeID(rng.Intn(g.Size())))
		o := pristine.Derive(fv)
		for s := 0; s < g.Order(); s += 3 {
			if !treesEqualBits(o.Tree(graph.NodeID(s)), Compute(fv, graph.NodeID(s))) {
				t.Fatalf("failed %v root %d: derived tree differs from Compute", fv.RemovedEdges(), s)
			}
		}
		if got := pristine.CachedTrees(); got > 4 {
			t.Fatalf("pristine oracle holds %d trees, cap 4", got)
		}
	}
}

// TestRowAllocatesNothing: Row allocates nothing and memoizes nothing — on
// a derived oracle for a root with orphans (its row is repaired in the
// solver's scratch), for a root without (its row is the pristine tree's
// own), and on a plain oracle (a search in the scratch, over a view that
// also cuts a node off, so the row must mark what the search left
// unlabeled) — and each row is Compute's. Once a tree is memoized, Row
// returns that tree's row.
func TestRowAllocatesNothing(t *testing.T) {
	g := topology.PaperAS(1, 0.05)
	pristine := NewOracle(g)
	failed := []graph.EdgeID{3, 40, 200}
	fv := graph.FailEdges(g, failed...)
	derived := pristine.Derive(fv)
	var orphaned, clean graph.NodeID = -1, -1
	for s := 0; s < g.Order(); s++ {
		uses := false
		for _, f := range failed {
			uses = uses || scanUsesEdge(pristine.Tree(graph.NodeID(s)), f)
		}
		if uses && orphaned < 0 {
			orphaned = graph.NodeID(s)
		}
		if !uses && clean < 0 {
			clean = graph.NodeID(s)
		}
	}
	if orphaned < 0 || clean < 0 {
		t.Fatalf("vacuous: root with orphans %d, root without %d", orphaned, clean)
	}
	// The plain arm's view cuts off a node other than the root; the arms
	// before it leave a finite label there in the scratch.
	cut := graph.NodeID(0)
	if cut == orphaned {
		cut = 1
	}
	cutFailed := slices.Clone(failed)
	for _, a := range g.Arcs(cut) {
		cutFailed = append(cutFailed, a.Edge)
	}
	sv := NewSolver(g.Order())
	for _, tc := range []struct {
		name string
		o    *Oracle
		root graph.NodeID
	}{
		{"derived", derived, orphaned},
		{"no-orphans", derived, clean},
		{"plain", NewOracle(graph.FailEdges(g, cutFailed...)), orphaned},
	} {
		cached := tc.o.CachedTrees()
		var row []float64
		if a := testing.AllocsPerRun(50, func() { row = tc.o.Row(tc.root, sv) }); a != 0 {
			t.Errorf("%s: Row allocates %v times, want 0", tc.name, a)
		}
		if got := tc.o.CachedTrees(); got != cached {
			t.Errorf("%s: Row changed CachedTrees from %d to %d", tc.name, cached, got)
		}
		want := Compute(tc.o.View(), tc.root).Dists()
		if tc.name == "plain" && want[cut] != Unreachable {
			t.Fatalf("vacuous: node %d is reachable in the plain arm's view", cut)
		}
		for v := range want {
			if math.Float64bits(row[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: row at %d = %v, Compute says %v", tc.name, v, row[v], want[v])
			}
		}
		inScratch := &row[0] == &sv.dist[0]
		if inScratch != (tc.name != "no-orphans") {
			t.Errorf("%s: row in the solver's scratch: %v", tc.name, inScratch)
		}
		if tc.name == "no-orphans" && &row[0] != &pristine.Tree(tc.root).Dists()[0] {
			t.Errorf("%s: row is not the pristine tree's own", tc.name)
		}
		if memo := tc.o.Tree(tc.root).Dists(); &tc.o.Row(tc.root, sv)[0] != &memo[0] {
			t.Errorf("%s: Row does not return the memoized tree's row", tc.name)
		}
	}
}

// TestTreeLayout: the preorder layout names every subtree as one run.
func TestTreeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomConnected(rng, 80, 60, intWeights(rng, 4))
	g.AddNode() // isolated: the layout must skip an unreached node
	for _, root := range []graph.NodeID{0, 5, 79} {
		tr := Compute(g, root)
		lay := buildLayout(tr)
		if len(lay.order) != 80 || lay.pre[80] != -1 {
			t.Fatalf("root %d: %d nodes laid out, isolated node at %d", root, len(lay.order), lay.pre[80])
		}
		for v := range tr.dist {
			node := graph.NodeID(v)
			if !tr.Reached(node) {
				if lay.pre[v] != -1 {
					t.Fatalf("unreached node %d has a preorder position", v)
				}
				continue
			}
			run := lay.order[lay.pre[v] : lay.pre[v]+lay.size[v]]
			if run[0] != node {
				t.Fatalf("node %d does not head its own run", v)
			}
			inRun := map[graph.NodeID]bool{}
			for _, x := range run {
				inRun[x] = true
			}
			// x is in v's subtree iff walking x's parents meets v.
			for _, x := range lay.order {
				at := x
				for at != node && at >= 0 {
					at = tr.parent[at]
				}
				if (at == node) != inRun[x] {
					t.Fatalf("node %d: run membership of %d is %v, ancestry says %v", v, x, inRun[x], at == node)
				}
			}
		}
	}
}
