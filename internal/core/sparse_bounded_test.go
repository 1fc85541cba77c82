package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// trueDistances runs the CSR SSSP on fv from s and returns the full
// distance row, the bound input FromBounded expects.
func trueDistances(fv *graph.FailureView, s graph.NodeID) []float64 {
	sp := spath.NewSolver(fv.Order())
	sp.Solve(fv, s)
	bound := make([]float64, fv.Order())
	for v := range bound {
		bound[v] = sp.Dist(graph.NodeID(v))
	}
	return bound
}

func sameDecomposition(a, b Decomposition) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Components {
		if a.Components[i].Kind != b.Components[i].Kind ||
			a.Components[i].Base != b.Components[i].Base ||
			!a.Components[i].Path.Equal(b.Components[i].Path) {
			return false
		}
	}
	return true
}

// baseNamesPath checks the identity every scan over a materialized base set
// hands on: a base-path component's Base names the stored path Equal to its
// Path, and only a bare edge carries none.
func baseNamesPath(ex *paths.Explicit, d Decomposition) error {
	for i, c := range d.Components {
		switch {
		case c.Kind == KindEdge && c.Base != 0:
			return fmt.Errorf("component %d: bare edge %v carries base index %d", i, c.Path, c.Base-1)
		case c.Kind == KindBasePath && (c.Base < 1 || int(c.Base) > ex.Len()):
			return fmt.Errorf("component %d: base path %v carries index %d of %d", i, c.Path, c.Base-1, ex.Len())
		case c.Kind == KindBasePath && !ex.All()[c.Base-1].Equal(c.Path):
			return fmt.Errorf("component %d: index %d names %v, the component is %v", i, c.Base-1, ex.All()[c.Base-1], c.Path)
		}
	}
	return nil
}

// TestFromBoundedBitIdenticalToFrom: on random graphs under random edge
// failures, a pooled solver with a cost index and true-distance bounds
// returns exactly the decompositions the plain unbounded solver does —
// same reachability and the same component sequences, not just costs.
// This is the property the incremental epoch builder's bit-identity claim
// rests on.
func TestFromBoundedBitIdenticalToFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(rng, 14, 14, 4)
		var sources []graph.NodeID
		for i := 0; i < g.Order(); i++ {
			sources = append(sources, graph.NodeID(i))
		}
		ex := paths.FromSources(paths.NewAllShortest(g), sources)
		if trial%2 == 0 {
			ex = paths.Corollary4Extend(ex, g)
		}

		nfail := 1 + rng.Intn(3)
		var failed []graph.EdgeID
		for len(failed) < nfail {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)

		// The live columns at fv's failure state (a link drawn twice is
		// down once).
		li := paths.NewLiveIndex(ex, paths.NewCostIndex(ex))
		li.Update(fv.RemovedEdges(), nil)
		bounded := NewSparseSolver(ex, fv)
		bounded.SetLiveIndex(li)

		var dsts []graph.NodeID
		for d := 0; d < g.Order(); d++ {
			dsts = append(dsts, graph.NodeID(d))
		}
		for s := 0; s < g.Order(); s++ {
			src := graph.NodeID(s)
			wantDecs, wantOks := NewSparseSolver(ex, fv).From(src, dsts)
			bound := trueDistances(fv, src)
			gotDecs, gotOks := bounded.FromBounded(src, dsts, bound, spath.Unreachable)
			for i := range dsts {
				if gotOks[i] != wantOks[i] {
					t.Fatalf("trial %d s=%d d=%d: reachable %v (bounded) vs %v (plain)",
						trial, s, dsts[i], gotOks[i], wantOks[i])
				}
				if !sameDecomposition(gotDecs[i], wantDecs[i]) {
					t.Fatalf("trial %d s=%d d=%d: decomposition diverged:\n bounded: %v\n plain:   %v",
						trial, s, dsts[i], gotDecs[i], wantDecs[i])
				}
				// The live-column scan and the insertion-order scan name the
				// same stored path (sameDecomposition compared the indices).
				if err := baseNamesPath(ex, wantDecs[i]); err != nil {
					t.Fatalf("trial %d s=%d d=%d: %v", trial, s, dsts[i], err)
				}
			}
		}
	}
}

// TestRebindMatchesFreshSolver: one solver rebound across a churn of
// failure views must agree with a fresh solver per view.
func TestRebindMatchesFreshSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 16, 18, 3)
	var sources []graph.NodeID
	for i := 0; i < g.Order(); i++ {
		sources = append(sources, graph.NodeID(i))
	}
	ex := paths.FromSources(paths.NewAllShortest(g), sources)
	li := paths.NewLiveIndex(ex, paths.NewCostIndex(ex))

	pooled := NewSparseSolver(ex, graph.FailEdges(g))
	pooled.SetLiveIndex(li)
	var dsts []graph.NodeID
	for d := 0; d < g.Order(); d++ {
		dsts = append(dsts, graph.NodeID(d))
	}
	var down []graph.EdgeID
	for step := 0; step < 20; step++ {
		var failed []graph.EdgeID
		for len(failed) < 1+rng.Intn(4) {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		li.Update(fv.RemovedEdges(), down) // the index moves with the view
		down = fv.RemovedEdges()
		pooled.Rebind(fv)
		src := graph.NodeID(rng.Intn(g.Order()))
		bound := trueDistances(fv, src)
		gotDecs, gotOks := pooled.FromBounded(src, dsts, bound, spath.Unreachable)
		wantDecs, wantOks := NewSparseSolver(ex, fv).From(src, dsts)
		for i := range dsts {
			if gotOks[i] != wantOks[i] || !sameDecomposition(gotDecs[i], wantDecs[i]) {
				t.Fatalf("step %d s=%d d=%d: rebind diverged from fresh solver", step, src, dsts[i])
			}
		}
	}
}

// TestFromBoundedSkipsUnreachable: destinations the bound proves
// unreachable come back not-ok without being searched for.
func TestFromBoundedSkipsUnreachable(t *testing.T) {
	// Path 0-1-2: failing edge (1,2) strands node 2.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	cut := g.AddEdge(1, 2, 1)
	ex := paths.FromSources(paths.NewAllShortest(g), []graph.NodeID{0, 1, 2})
	fv := graph.FailEdges(g, cut)
	ss := NewSparseSolver(ex, fv)
	bound := trueDistances(fv, 0)
	decs, oks := ss.FromBounded(0, []graph.NodeID{0, 1, 2}, bound, spath.Unreachable)
	if !oks[0] || !oks[1] || oks[2] {
		t.Fatalf("oks = %v, want [true true false]", oks)
	}
	if decs[1].Len() != 1 {
		t.Fatalf("0->1 decomposition has %d components, want 1", decs[1].Len())
	}
}
