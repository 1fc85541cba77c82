package spath

import (
	"fmt"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

var (
	treeSink *Tree
	rowSink  []float64
)

// BenchmarkOracleTree prices one epoch tree on the benchmark topology (AS at
// scale 0.05: 237 nodes, 494 links) with k links down, over the roots that
// actually pay — those whose pristine tree uses a failed link; every other
// root's derived tree is the pristine pointer. derived repairs the resident
// pristine tree, row repairs its labels in a solver's scratch and builds no
// tree (Oracle.Row, what the engine's solve fan-out reads), computed
// searches the failed view from scratch. The derived arm is asserted to
// allocate the tree and its one label block, nothing else, and the row arm
// to allocate nothing.
func BenchmarkOracleTree(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	pristine := NewOracle(g)
	rng := rand.New(rand.NewSource(16))
	for k := 1; k <= 3; k++ {
		failed := make([]graph.EdgeID, k)
		for i := range failed {
			failed[i] = graph.EdgeID(rng.Intn(g.Size()))
		}
		fv := graph.FailEdges(g, failed...)
		d := pristine.Derive(fv).derive
		var roots []graph.NodeID
		for s := 0; s < g.Order(); s++ {
			root := graph.NodeID(s)
			if d.tree(root) != pristine.Tree(root) { // also lays the pristine tree out
				roots = append(roots, root)
			}
		}
		if len(roots) == 0 {
			b.Fatalf("k=%d: no root's tree uses a failed link", k)
		}
		sv := NewSolver(g.Order())
		arms := []struct {
			name  string
			tree  func(graph.NodeID) *Tree
			limit float64 // allocations asserted per call; -1: none
		}{
			{"derived", d.tree, 2},
			{"row", func(root graph.NodeID) *Tree { rowSink = d.row(root, sv); return nil }, 0},
			{"computed", func(root graph.NodeID) *Tree { return Compute(fv, root) }, -1},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("%s/k=%d", arm.name, k), func(b *testing.B) {
				if a := testing.AllocsPerRun(100, func() { treeSink = arm.tree(roots[0]) }); arm.limit >= 0 && a > arm.limit {
					b.Fatalf("%s: %v allocations a root, want at most %v", arm.name, a, arm.limit)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					treeSink = arm.tree(roots[i%len(roots)])
				}
			})
		}
	}
}
