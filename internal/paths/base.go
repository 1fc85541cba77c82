// Package paths defines base sets of paths — the pre-provisioned LSPs that
// restoration by path concatenation draws from — and the operations the
// paper performs on them: canonical per-pair selection, subpath closure,
// and the Corollary-4 edge extension.
//
// Base sets come in two flavors:
//
//   - Implicit sets answer membership and lookup queries through a
//     shortest-path oracle without materializing any path. They scale to
//     the paper's 40k-node Internet topology.
//   - Explicit sets store every path with one index per question asked
//     of them (pair -> paths, link -> paths, node -> arcs out and in): the
//     base set the online serving stack provisions and solves over.
package paths

import (
	"rbpc/internal/graph"
	"rbpc/internal/spath"
)

// Base is a set of base paths over an original (unfailed) network view.
//
// Contains assumes p is structurally valid in View() (see graph.Path.
// Validate); it only decides set membership.
type Base interface {
	// Contains reports whether p belongs to the base set.
	Contains(p graph.Path) bool
	// Between returns the canonical base path from s to d, if the set has
	// one.
	Between(s, d graph.NodeID) (graph.Path, bool)
	// View returns the original network view the paths live in.
	View() graph.View
}

// TreeBase is a base set whose path for each pair is the pair's path in
// one shortest-path tree per source: Between(s, d) is Tree(s)'s path to
// d. A restorable tiebreak is exactly such a choice of one tree per
// source, and it is what FromSources reads, a tree at a time on each of
// its goroutines: Tree must be safe for concurrent use, as the oracle's
// is.
type TreeBase interface {
	Base
	// Tree returns the tree rooted at s that Between reads s's paths from.
	Tree(s graph.NodeID) *spath.Tree
}

// AllShortest is the implicit base set containing every shortest path of
// the original network. This is the base set of the paper's main
// experiments ("the set of basic paths corresponds to all-pairs shortest
// paths"): membership is simply "is p a shortest path", and the canonical
// path per pair is the oracle's deterministic tree path.
//
// AllShortest is subpath-closed (every subpath of a shortest path is a
// shortest path), which is what makes the greedy largest-prefix
// decomposition optimal.
type AllShortest struct {
	o *spath.Oracle
}

// NewAllShortest returns the all-shortest-paths base set over v.
func NewAllShortest(v graph.View) *AllShortest {
	return &AllShortest{o: spath.NewOracle(v)}
}

// NewAllShortestOracle returns the all-shortest-paths base set sharing an
// existing oracle (and its memoized trees and eviction policy).
func NewAllShortestOracle(o *spath.Oracle) *AllShortest {
	return &AllShortest{o: o}
}

// Oracle exposes the underlying distance oracle (shared by evaluation code
// to avoid recomputing trees).
func (b *AllShortest) Oracle() *spath.Oracle { return b.o }

// Contains implements Base.
func (b *AllShortest) Contains(p graph.Path) bool { return b.o.IsShortest(p) }

// Between implements Base.
func (b *AllShortest) Between(s, d graph.NodeID) (graph.Path, bool) {
	return b.o.Path(s, d)
}

// View implements Base.
func (b *AllShortest) View() graph.View { return b.o.View() }

// Tree implements TreeBase: the oracle's tree at s.
func (b *AllShortest) Tree(s graph.NodeID) *spath.Tree { return b.o.Tree(s) }

// UniqueShortest is the implicit base set of Theorem 3: exactly one
// shortest path per pair, selected by infinitesimal padding of the edge
// weights. Because padded shortest paths are unique, the set is
// automatically subpath-closed, so both decomposition strategies apply.
//
// The padded weights are used only for selection; all reported costs remain
// the true weights of the original view.
type UniqueShortest struct {
	orig   graph.View
	padded *spath.Oracle
}

// NewUniqueShortest returns the padded-unique base set over g.
func NewUniqueShortest(g *graph.Graph) *UniqueShortest {
	return &UniqueShortest{
		orig:   g,
		padded: spath.NewOracle(spath.Padded(g, spath.PaddingFor(g))),
	}
}

// Contains implements Base: p must be the unique padded-shortest path
// between its endpoints.
func (b *UniqueShortest) Contains(p graph.Path) bool {
	return b.padded.IsShortest(p)
}

// Between implements Base.
func (b *UniqueShortest) Between(s, d graph.NodeID) (graph.Path, bool) {
	return b.padded.Path(s, d)
}

// View implements Base, returning the original (unpadded) view.
func (b *UniqueShortest) View() graph.View { return b.orig }

// Tree implements TreeBase: the padded oracle's tree at s. Its paths are
// the set's; its distances are padded.
func (b *UniqueShortest) Tree(s graph.NodeID) *spath.Tree { return b.padded.Tree(s) }

// PaddedOracle exposes the padded selection oracle, used by the sparse
// decomposer to rank candidate base paths.
func (b *UniqueShortest) PaddedOracle() *spath.Oracle { return b.padded }

var (
	_ TreeBase = (*AllShortest)(nil)
	_ TreeBase = (*UniqueShortest)(nil)
)

// Survives reports whether path p avoids every failure in the view: all of
// its edges are usable (neither the edge nor its endpoints failed). Whole
// graphs (no failures) always report true for valid paths.
func Survives(p graph.Path, fv *graph.FailureView) bool {
	for _, e := range p.Edges {
		if !fv.EdgeUsable(e) {
			return false
		}
	}
	// A trivial path survives iff its single node does.
	return fv.NodeUsable(p.Src()) && fv.NodeUsable(p.Dst())
}
