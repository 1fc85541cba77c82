package core

import (
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
)

// TestBatchedSolveBitIdenticalToPairSolves is the bit-identity property a
// source-batched solve rests on: one multi-target search per source —
// sharing a single frontier and visited generation across all of that
// source's targets, stopping at the last of them — returns exactly what N
// independent single-target solves return, over random graphs and random
// fail/repair bursts. Costs are compared via Float64bits (no epsilon) and
// restoration paths component by component, because the engine reuses
// cached rows only when recomputed rows are bit-for-bit reproducible.
func TestBatchedSolveBitIdenticalToPairSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		g := randomConnected(rng, 14, 14, 4)
		ex := edgeComplete(g, paths.NewAllShortest(g))
		var dsts []graph.NodeID
		for d := 0; d < g.Order(); d++ {
			dsts = append(dsts, graph.NodeID(d))
		}

		down := make(map[graph.EdgeID]bool)
		for burst := 0; burst < 4; burst++ {
			// Random delta: fail up to two up edges, repair up to one down
			// edge.
			for n := 1 + rng.Intn(2); n > 0; n-- {
				down[graph.EdgeID(rng.Intn(g.Size()))] = true
			}
			if burst > 0 && rng.Intn(2) == 0 {
				for e := range down {
					delete(down, e)
					break
				}
			}
			var failed []graph.EdgeID
			for e := range down {
				failed = append(failed, e)
			}
			fv := graph.FailEdges(g, failed...)

			batched := NewSparseSolver(ex, fv)
			for s := 0; s < g.Order(); s++ {
				src := graph.NodeID(s)
				gotDecs, gotOks := batched.From(src, dsts)
				for i, d := range dsts {
					wantDecs, wantOks := NewSparseSolver(ex, fv).From(src, []graph.NodeID{d})
					if gotOks[i] != wantOks[0] {
						t.Fatalf("trial %d burst %d s=%d d=%d: reachable %v (batched) vs %v (pair)",
							trial, burst, s, d, gotOks[i], wantOks[0])
					}
					if !gotOks[i] {
						continue
					}
					gc := math.Float64bits(gotDecs[i].Cost(g))
					wc := math.Float64bits(wantDecs[0].Cost(g))
					if gc != wc {
						t.Fatalf("trial %d burst %d s=%d d=%d: cost bits %x (batched) vs %x (pair)",
							trial, burst, s, d, gc, wc)
					}
					if !sameDecomposition(gotDecs[i], wantDecs[0]) {
						t.Fatalf("trial %d burst %d s=%d d=%d: decomposition %v (batched) vs %v (pair)",
							trial, burst, s, d, gotDecs[i], wantDecs[0])
					}
					// The scan names stored paths.
					if err := baseNamesPath(ex, gotDecs[i]); err != nil {
						t.Fatalf("trial %d burst %d s=%d d=%d: %v", trial, burst, s, d, err)
					}
				}
			}
		}
	}
}
