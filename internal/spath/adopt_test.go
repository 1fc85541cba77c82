package spath

import (
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
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

// TestAdoptFromBitIdentical: across random failed-set transitions, every
// tree AdoptFrom carries over is bit-for-bit the tree a fresh solve on the
// new view produces — distances, hops, parents, and parent edges.
func TestAdoptFromBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []func() float64{
		func() float64 { return 1 },
		func() float64 { return float64(1 + rng.Intn(4)) },
	}
	adoptedTotal := 0
	for trial := 0; trial < 40; trial++ {
		g := randomConnected(rng, 20, 25, weights[trial%2])
		pick := func(k int) []graph.EdgeID {
			seen := map[graph.EdgeID]bool{}
			for len(seen) < k {
				seen[graph.EdgeID(rng.Intn(g.Size()))] = true
			}
			out := make([]graph.EdgeID, 0, k)
			for e := range seen {
				out = append(out, e)
			}
			return out
		}
		prevFailed := pick(1 + rng.Intn(3))
		newFailed := pick(1 + rng.Intn(3))

		prevO := NewOracle(graph.FailEdges(g, prevFailed...))
		for s := 0; s < g.Order(); s++ {
			prevO.Tree(graph.NodeID(s))
		}

		inPrev := map[graph.EdgeID]bool{}
		for _, e := range prevFailed {
			inPrev[e] = true
		}
		inNew := map[graph.EdgeID]bool{}
		for _, e := range newFailed {
			inNew[e] = true
		}
		var removed []graph.EdgeID
		var repaired []graph.Edge
		for _, e := range newFailed {
			if !inPrev[e] {
				removed = append(removed, e)
			}
		}
		for _, e := range prevFailed {
			if !inNew[e] {
				repaired = append(repaired, g.Edge(e))
			}
		}

		newView := graph.FailEdges(g, newFailed...)
		newO := NewOracle(newView)
		n := newO.AdoptFrom(prevO, removed, repaired)
		adoptedTotal += n
		if got := newO.CachedTrees(); got != n {
			t.Fatalf("trial %d: adopted %d but cached %d", trial, n, got)
		}
		for s := 0; s < g.Order(); s++ {
			src := graph.NodeID(s)
			newO.mu.RLock()
			e := newO.trees[src]
			newO.mu.RUnlock()
			if e == nil {
				continue // not adopted: recomputed on demand, nothing to verify
			}
			if fresh := Compute(newView, src); !treesEqualBits(e.tree, fresh) {
				t.Fatalf("trial %d source %d: adopted tree differs from fresh solve", trial, s)
			}
		}
	}
	if adoptedTotal == 0 {
		t.Fatal("no tree adopted across any trial: the check is vacuous")
	}
}

// TestAdoptFromRejectsBrokenAndImproved: a tree using a removed edge, or
// one a repaired edge shortcuts, must not carry over.
func TestAdoptFromRejectsBrokenAndImproved(t *testing.T) {
	// Line 0-1-2-3 plus a chord (0,3) of weight 1.
	g := lineGraph(4)
	chord := g.AddEdge(0, 3, 1)

	// Previous epoch: chord failed. Tree from 0 runs down the line.
	prevO := NewOracle(graph.FailEdges(g, chord))
	for s := 0; s < g.Order(); s++ {
		prevO.Tree(graph.NodeID(s))
	}

	// Repairing the chord improves d(0,3) from 3 to 1 and ties the middle
	// sources' distances to the far endpoint (1+1 == 2 from source 1), so
	// every tree must be recomputed: improvements change distances,
	// ties could change the deterministic parent choice.
	newO := NewOracle(graph.FailEdges(g))
	adopted := newO.AdoptFrom(prevO, nil, []graph.Edge{g.Edge(chord)})
	if adopted != 0 {
		t.Fatalf("adopted %d trees, want 0 (chord improves or ties every source)", adopted)
	}
	if newO.Tree(0).Dist(3) != 1 || newO.Tree(3).Dist(0) != 1 {
		t.Fatal("recomputed tree kept the pre-repair distance")
	}

	// A strictly useless repair (heavy chord) disturbs nothing: every tree
	// carries over.
	h := lineGraph(4)
	heavy := h.AddEdge(0, 3, 5)
	prevH := NewOracle(graph.FailEdges(h, heavy))
	for s := 0; s < h.Order(); s++ {
		prevH.Tree(graph.NodeID(s))
	}
	newH := NewOracle(graph.FailEdges(h))
	if got := newH.AdoptFrom(prevH, nil, []graph.Edge{h.Edge(heavy)}); got != 4 {
		t.Fatalf("adopted %d trees, want all 4 (heavy chord helps nobody)", got)
	}

	// Now fail a line edge: the line trees use it, only source-side trees
	// that avoid it could survive; tree rooted at 0 in the all-up view uses
	// edge (1,2)? 0's tree: 0-1 (line), 0-3 (chord), 3-2? d(2)=2 via 1 or
	// via 3; tie broken deterministically — just assert the invariant
	// instead: no adopted tree uses the removed edge.
	upO := NewOracle(graph.FailEdges(g))
	for s := 0; s < g.Order(); s++ {
		upO.Tree(graph.NodeID(s))
	}
	cut := graph.EdgeID(1) // edge (1,2)
	downO := NewOracle(graph.FailEdges(g, cut))
	downO.AdoptFrom(upO, []graph.EdgeID{cut}, nil)
	for s := 0; s < g.Order(); s++ {
		src := graph.NodeID(s)
		downO.mu.RLock()
		e := downO.trees[src]
		downO.mu.RUnlock()
		if e != nil && scanUsesEdge(e.tree, cut) {
			t.Fatalf("source %d: adopted a tree that uses the removed edge", s)
		}
	}
}

// scanUsesEdge is the per-node reference of Tree.usesEdge's two-probe test.
func scanUsesEdge(t *Tree, id graph.EdgeID) bool {
	for _, pe := range t.parentE {
		if pe == id {
			return true
		}
	}
	return false
}

// TestAdoptFromParallelEdges: between one node pair, only the parallel
// edge the tree actually uses blocks adoption; its equal-weight twin — same
// endpoints, other ID — does not, and everything adopted is the fresh tree.
func TestAdoptFromParallelEdges(t *testing.T) {
	// Line 0-1-2-3 with the middle link doubled: edges 1 and 3 both join
	// (1,2) at weight 1. The tie-break keeps the lower ID in every tree.
	g := lineGraph(4)
	twin := g.AddEdge(1, 2, 1)
	used := graph.EdgeID(1)
	upO := NewOracle(graph.FailEdges(g))
	for s := 0; s < g.Order(); s++ {
		tr := upO.Tree(graph.NodeID(s))
		if !scanUsesEdge(tr, used) || scanUsesEdge(tr, twin) {
			t.Fatalf("source %d: expected edge %d in the tree and its twin %d out", s, used, twin)
		}
		for _, e := range g.Edges() {
			if got, want := tr.usesEdge(e), scanUsesEdge(tr, e.ID); got != want {
				t.Fatalf("source %d edge %d: usesEdge = %v, scan says %v", s, e.ID, got, want)
			}
		}
	}
	for _, tc := range []struct {
		cut  graph.EdgeID
		want int
	}{{twin, g.Order()}, {used, 0}} {
		downView := graph.FailEdges(g, tc.cut)
		downO := NewOracle(downView)
		if got := downO.AdoptFrom(upO, []graph.EdgeID{tc.cut}, nil); got != tc.want {
			t.Fatalf("cut edge %d: adopted %d trees, want %d", tc.cut, got, tc.want)
		}
		for s := 0; s < g.Order(); s++ {
			src := graph.NodeID(s)
			if !treesEqualBits(downO.Tree(src), Compute(downView, src)) {
				t.Fatalf("cut edge %d source %d: oracle tree differs from a fresh solve", tc.cut, s)
			}
		}
	}
}

// TestAdoptFromRespectsCap: adoption never overfills a capped oracle.
func TestAdoptFromRespectsCap(t *testing.T) {
	g := lineGraph(8)
	prevO := NewOracle(graph.FailEdges(g))
	for s := 0; s < g.Order(); s++ {
		prevO.Tree(graph.NodeID(s))
	}
	newO := NewOracle(graph.FailEdges(g))
	newO.SetCap(3)
	newO.AdoptFrom(prevO, nil, nil)
	if got := newO.CachedTrees(); got > 3 {
		t.Fatalf("capped oracle holds %d trees, cap 3", got)
	}
}
