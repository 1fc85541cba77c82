package paths

import (
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

// BenchmarkExplicitBuild measures building a base set's indexes, one set an
// op; the canonical paths come from an Explicit built once, so the
// shortest-path oracle's work is outside the timer.
//
//   - as: the benchmark of record's set — the AS stand-in at scale 0.05
//     (seed 1), FromSources over every node plus the 1-hop path over every
//     link both ways, and its ArcIndex. One path a pair, so Add's duplicate
//     check walks chains of one.
//   - isp-closure: the SubpathClosure of the ISP stand-in's canonical set,
//     and its ArcIndex. Most subpaths are offered many times and some pairs
//     hold several paths, so this arm times the chain walk.
func BenchmarkExplicitBuild(b *testing.B) {
	canonical := func(g *graph.Graph) (*Explicit, []graph.NodeID) {
		src := make([]graph.NodeID, g.Order())
		for i := range src {
			src[i] = graph.NodeID(i)
		}
		return FromSources(NewAllShortest(g), src), src
	}
	b.Run("as", func(b *testing.B) {
		g := topology.PaperAS(1, 0.05)
		canon, src := canonical(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex := FromSources(canon, src)
			for _, e := range g.Edges() {
				ex.Add(EdgePath(g, e.ID, e.U))
				ex.Add(EdgePath(g, e.ID, e.V))
			}
			ex.ArcIndex()
			explicitSink = ex
		}
	})
	b.Run("isp-closure", func(b *testing.B) {
		canon, _ := canonical(topology.PaperISP(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			explicitSink = SubpathClosure(canon)
			explicitSink.ArcIndex()
		}
	})
}

// explicitSink keeps the built sets reachable, so no build is optimized away.
var explicitSink *Explicit
