package core

import (
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// TestBatchedSolveBitIdenticalToPairSolves is the bit-identity property the
// source-batched recompute fan-out rests on: one bounded multi-target
// search per source — sharing a single frontier, arena, and visited
// generation across all of that source's targets — returns exactly what N
// independent single-target solves return, over random graphs and random
// fail/repair bursts applied through a persistent LiveIndex. Costs are
// compared via Float64bits (no epsilon) and restoration paths component by
// component, because the engine's delta assembly reuses cached rows only
// when recomputed rows are bit-for-bit reproducible.
func TestBatchedSolveBitIdenticalToPairSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		g := randomConnected(rng, 14, 14, 4)
		var sources []graph.NodeID
		for i := 0; i < g.Order(); i++ {
			sources = append(sources, graph.NodeID(i))
		}
		ex := paths.FromSources(paths.NewAllShortest(g), sources)
		// Mirror EdgeLSPs provisioning (a 1-hop path per link, both
		// orientations) so the live index attests edge-completeness and
		// the batched solver takes its raw-edge-scan-skipping fast path.
		for _, e := range g.Edges() {
			ex.Add(paths.EdgePath(g, e.ID, e.U))
			ex.Add(paths.EdgePath(g, e.ID, e.V))
		}
		ci := paths.NewCostIndex(ex)
		li := paths.NewLiveIndex(ex, ci)
		if !li.EdgeComplete() {
			t.Fatalf("trial %d: edge-LSP augmented base set not attested edge-complete", trial)
		}

		var dsts []graph.NodeID
		for d := 0; d < g.Order(); d++ {
			dsts = append(dsts, graph.NodeID(d))
		}

		down := make(map[graph.EdgeID]bool)
		for burst := 0; burst < 4; burst++ {
			// Random delta: fail up to two up edges, repair up to one down
			// edge, keeping the live index in lockstep with the view.
			var newlyDown, repaired []graph.EdgeID
			for n := 1 + rng.Intn(2); n > 0; n-- {
				e := graph.EdgeID(rng.Intn(g.Size()))
				if !down[e] {
					down[e] = true
					newlyDown = append(newlyDown, e)
				}
			}
			if burst > 0 && rng.Intn(2) == 0 {
				for e := range down {
					down[e] = false
					delete(down, e)
					repaired = append(repaired, e)
					break
				}
			}
			li.Update(newlyDown, repaired)

			var failed []graph.EdgeID
			for e := range down {
				failed = append(failed, e)
			}
			fv := graph.FailEdges(g, failed...)

			batched := NewSparseSolver(ex, fv)
			batched.SetLiveIndex(li)

			for s := 0; s < g.Order(); s++ {
				src := graph.NodeID(s)
				bound := trueDistances(fv, src)
				gotDecs, gotOks := batched.FromBounded(src, dsts, bound, spath.Unreachable)
				for i, d := range dsts {
					single := NewSparseSolver(ex, fv)
					single.SetLiveIndex(li)
					wantDecs, wantOks := single.FromBounded(src, []graph.NodeID{d}, bound, spath.Unreachable)
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
					// The live columns, filtered or aliased, name stored paths.
					if err := baseNamesPath(ex, gotDecs[i]); err != nil {
						t.Fatalf("trial %d burst %d s=%d d=%d: %v", trial, burst, s, d, err)
					}
				}

				// Ellipse form: a small random target subset (so the
				// two-sided prune actually bites — against the full
				// destination set every node is its own nearest target and
				// nothing prunes), with the reverse row assembled the way
				// the engine does: min over the subset's reachable targets
				// of that target's own distance row (undirected view, so
				// dist(v,d) = dist(d,v)). Results must stay bit-identical
				// to the plain bounded batch.
				sub := make([]graph.NodeID, 0, 3)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					sub = append(sub, dsts[rng.Intn(len(dsts))])
				}
				rev := make([]float64, g.Order())
				for v := range rev {
					rev[v] = spath.Unreachable
				}
				live := false
				for _, d := range sub {
					if d == src || bound[d] >= spath.Unreachable {
						continue
					}
					live = true
					for v, dv := range trueDistances(fv, d) {
						if dv < rev[v] {
							rev[v] = dv
						}
					}
				}
				if !live {
					continue
				}
				ell := NewSparseSolver(ex, fv)
				ell.SetLiveIndex(li)
				eDecs, eOks := ell.FromBoundedEllipse(src, sub, bound, rev, spath.Unreachable)
				for j, d := range sub {
					i := int(d) // dsts enumerates every node in ID order
					if eOks[j] != gotOks[i] {
						t.Fatalf("trial %d burst %d s=%d d=%d: reachable %v (ellipse) vs %v (batched)",
							trial, burst, s, d, eOks[j], gotOks[i])
					}
					if !eOks[j] {
						continue
					}
					ec := math.Float64bits(eDecs[j].Cost(g))
					gc := math.Float64bits(gotDecs[i].Cost(g))
					if ec != gc {
						t.Fatalf("trial %d burst %d s=%d d=%d: cost bits %x (ellipse) vs %x (batched)",
							trial, burst, s, d, ec, gc)
					}
					if !sameDecomposition(eDecs[j], gotDecs[i]) {
						t.Fatalf("trial %d burst %d s=%d d=%d: decomposition %v (ellipse) vs %v (batched)",
							trial, burst, s, d, eDecs[j], gotDecs[i])
					}
				}
			}
		}
	}
}
