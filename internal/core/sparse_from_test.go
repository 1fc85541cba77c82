package core

import (
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
)

// TestSparseFromMatchesSingle drives the batched decomposer against the
// single-destination one on random graphs under random multi-failures:
// same reachability, same cost, same component count, and every returned
// decomposition validates against the base set.
func TestSparseFromMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(rng, 16, 12, 4)
		base := paths.NewAllShortest(g)
		nfail := 1 + rng.Intn(3)
		var failed []graph.EdgeID
		for len(failed) < nfail {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		s := graph.NodeID(rng.Intn(g.Order()))

		dsts := make([]graph.NodeID, 0, g.Order())
		for d := 0; d < g.Order(); d++ {
			dsts = append(dsts, graph.NodeID(d)) // includes d == s on purpose
		}
		decs, oks := DecomposeSparseFrom(base, fv, s, dsts)
		if len(decs) != len(dsts) || len(oks) != len(dsts) {
			t.Fatalf("trial %d: result length %d/%d, want %d", trial, len(decs), len(oks), len(dsts))
		}
		for i, d := range dsts {
			one, ok1 := DecomposeSparse(base, fv, s, d)
			if oks[i] != ok1 {
				t.Fatalf("trial %d s=%d d=%d: reachable %v (batched) vs %v (single)",
					trial, s, d, oks[i], ok1)
			}
			if !oks[i] || d == s {
				continue
			}
			if got, want := decs[i].Cost(g), one.Cost(g); got != want {
				t.Fatalf("trial %d s=%d d=%d: cost %v (batched) vs %v (single)", trial, s, d, got, want)
			}
			if got, want := decs[i].Len(), one.Len(); got != want {
				t.Fatalf("trial %d s=%d d=%d: %d components (batched) vs %d (single)", trial, s, d, got, want)
			}
			restored := decs[i].Concat()
			if err := ValidateDecomposition(base, restored, decs[i]); err != nil {
				t.Fatalf("trial %d s=%d d=%d: invalid decomposition: %v", trial, s, d, err)
			}
		}
	}
}

func TestSparseFromEmptyAndUnusable(t *testing.T) {
	g := square()
	base := paths.NewAllShortest(g)
	fv := graph.FailEdges(g)

	decs, oks := DecomposeSparseFrom(base, fv, 0, nil)
	if len(decs) != 0 || len(oks) != 0 {
		t.Fatalf("empty dsts: got %d/%d results", len(decs), len(oks))
	}

	// A failed source makes everything unreachable.
	down := graph.Fail(g, nil, []graph.NodeID{0})
	_, oks = DecomposeSparseFrom(base, down, 0, []graph.NodeID{1, 2})
	for i, ok := range oks {
		if ok {
			t.Fatalf("dst %d reported reachable from failed source", i)
		}
	}

	// A failed destination is unreachable; others are unaffected.
	down = graph.Fail(g, nil, []graph.NodeID{2})
	_, oks = DecomposeSparseFrom(base, down, 0, []graph.NodeID{1, 2, 3})
	if !oks[0] || oks[1] || !oks[2] {
		t.Fatalf("oks = %v, want [true false true]", oks)
	}

	// An empty materialized base set has no candidates and a nil dead mask:
	// every route is bare edges.
	decs, oks = NewSparseSolver(paths.NewExplicit(g), fv).From(0, []graph.NodeID{2})
	if !oks[0] || decs[0].Len() != 2 || decs[0].Components[0].Kind != KindEdge {
		t.Fatalf("empty base set: ok %v, decomposition %v", oks[0], decs[0])
	}
}

// BenchmarkSparseFanout compares three ways to one source's fan-out over an
// edge-complete base set with three links down: n independent
// single-destination Dijkstras, one batched Dijkstra, and the pull the
// engine runs (the distance row and the liveness counts in hand, as the
// epoch oracle and the live index hand them over).
func BenchmarkSparseFanout(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 64, 64, 4)
	ex := edgeComplete(g, paths.NewAllShortest(g))
	fv := graph.FailEdges(g, 0, 1, 2)
	var dsts []graph.NodeID
	for d := 1; d < g.Order(); d++ {
		dsts = append(dsts, graph.NodeID(d))
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range dsts {
				DecomposeSparse(ex, fv, 0, d)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DecomposeSparseFrom(ex, fv, 0, dsts)
		}
	})
	b.Run("pull", func(b *testing.B) {
		li := paths.NewLiveIndex(ex)
		li.Update(fv.RemovedEdges(), nil, nil)
		dist := trueDistances(fv, 0)
		pull := NewPull(ex)
		decs, oks := make([]Decomposition, len(dsts)), make([]bool, len(dsts))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pull.From(0, dist, li.Dead(), dsts, decs, oks)
		}
	})
}
