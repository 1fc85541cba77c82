package paths

import (
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

// BenchmarkExplicitBuild measures building a base set's indexes, one set an
// op; the shortest-path trees are rooted once, outside the timer, so the
// oracle's work is not timed.
//
//   - as: the benchmark of record's set — the AS stand-in at scale 0.05
//     (seed 1), FromSources walking every node's tree of a pre-rooted
//     oracle, plus the 1-hop path over every link both ways through Add,
//     and its ArcIndex.
//   - isp-closure: the SubpathClosure of the ISP stand-in's canonical set,
//     and its ArcIndex. The closure comes wholly through Add: most
//     subpaths are offered many times and some pairs hold several paths,
//     so this arm times the pair map and the chain walk.
func BenchmarkExplicitBuild(b *testing.B) {
	rooted := func(g *graph.Graph) (*AllShortest, []graph.NodeID) {
		src := make([]graph.NodeID, g.Order())
		for i := range src {
			src[i] = graph.NodeID(i)
		}
		all := NewAllShortest(g)
		all.Oracle().Precompute(src, 1)
		return all, src
	}
	b.Run("as", func(b *testing.B) {
		g := topology.PaperAS(1, 0.05)
		all, src := rooted(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex := FromSources(all, src)
			for _, e := range g.Edges() {
				ex.Add(EdgePath(g, e.ID, e.U))
				ex.Add(EdgePath(g, e.ID, e.V))
			}
			ex.ArcIndex()
			explicitSink = ex
		}
	})
	b.Run("isp-closure", func(b *testing.B) {
		canon := FromSources(rooted(topology.PaperISP(1)))
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
