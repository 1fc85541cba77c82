package spath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rbpc/internal/graph"
)

// TestQuickDistToMatchesCompute: the early-stopping point query agrees
// with the full tree on distance, and on hop count for unit weights
// (for weighted graphs the min-cost path's hop count is tie-broken
// identically by both implementations).
func TestQuickDistToMatchesCompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		unit := rng.Intn(2) == 0
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			w := 1.0
			if !unit {
				w = float64(1 + rng.Intn(5))
			}
			g.AddEdge(u, v, w)
		}
		for trial := 0; trial < 12; trial++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			tr := Compute(g, s)
			dist, hops, ok := DistTo(g, s, d)
			if !tr.Reached(d) {
				if ok {
					return false
				}
				continue
			}
			if !ok || dist != tr.Dist(d) {
				return false
			}
			if s == d && (dist != 0 || hops != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDistToHopsOnRing(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6), 1)
	}
	dist, hops, ok := DistTo(g, 0, 3)
	if !ok || dist != 3 || hops != 3 {
		t.Errorf("DistTo(0,3) = %v,%v,%v", dist, hops, ok)
	}
	// Weighted: min-cost route with fewer hops.
	g2 := graph.New(3)
	g2.AddEdge(0, 1, 1)
	g2.AddEdge(1, 2, 1)
	g2.AddEdge(0, 2, 5)
	dist, hops, ok = DistTo(g2, 0, 2)
	if !ok || dist != 2 || hops != 2 {
		t.Errorf("weighted DistTo = %v,%v,%v", dist, hops, ok)
	}
}

func TestDistToUnreachableAndFailureViews(t *testing.T) {
	g := graph.New(3)
	e := g.AddEdge(0, 1, 1)
	if _, _, ok := DistTo(g, 0, 2); ok {
		t.Error("unreachable reported reachable")
	}
	if _, _, ok := DistTo(graph.FailEdges(g, e), 0, 1); ok {
		t.Error("failed edge still usable")
	}
}

func TestOracleViewAndCap(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	o := NewOracle(g)
	if o.View() != graph.View(g) {
		t.Error("View mismatch")
	}
	o.SetCap(2)
	o.Tree(0)
	o.Tree(1)
	o.Tree(2) // evicts one
	if got := o.CachedTrees(); got != 2 {
		t.Errorf("CachedTrees = %d, want cap 2", got)
	}
	// Evicted trees recompute transparently and stay correct.
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			want := Compute(g, graph.NodeID(s)).Dist(graph.NodeID(d))
			if got := o.Dist(graph.NodeID(s), graph.NodeID(d)); got != want {
				t.Fatalf("Dist(%d,%d) = %v, want %v", s, d, got, want)
			}
		}
	}
}
