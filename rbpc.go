// Package rbpc is a reproduction of "Restoration by Path Concatenation:
// Fast Recovery of MPLS Paths" (Afek, Bremler-Barr, Kaplan, Cohen,
// Merritt; PODC 2001): a library for restoring shortest paths after
// network failures by concatenating pre-provisioned base paths with the
// MPLS label stack, instead of signaling new LSPs.
//
// The theory (Section 3 of the paper): after k edge failures in an
// unweighted network, every new shortest path is a concatenation of at
// most k+1 original shortest paths (Theorem 1); in a weighted network, of
// at most k+1 original shortest paths interleaved with at most k single
// edges (Theorem 2); and one shortest path per pair suffices as the base
// set if ties are broken by infinitesimal padding (Theorem 3).
//
// The package surface is organized in three layers:
//
//   - Graph and shortest paths: Graph, Path, FailureView, ShortestPath,
//     NewOracle — the algorithmic substrate.
//   - Restoration planning: BaseSet constructors (AllShortestPaths,
//     OneShortestPathPerPair, ExplicitBase), NewRestorer, Decompose* —
//     computing which base paths to concatenate.
//   - MPLS deployment: NewDeployment provisions a simulated MPLS network
//     with the base set's LSPs and every pair's FEC row; Serve restores
//     over it online — source-router RBPC (FEC rewrites), local RBPC
//     (single ILM-row patches) or the hybrid of the two on a modeled
//     link-state flood — and forwards packets through each epoch
//     (Snapshot.Send).
//
// Reproductions of the paper's tables and figures live behind RunTable1,
// RunTable2, RunTable3 and RunFigure10; see also cmd/rbpc-bench.
package rbpc

import (
	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// Graph is a weighted undirected multigraph with dense integer node IDs.
type Graph = graph.Graph

// Path is a walk through a graph with explicit edges.
type Path = graph.Path

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// EdgeID identifies an edge; parallel edges have distinct IDs.
type EdgeID = graph.EdgeID

// Edge is one edge record.
type Edge = graph.Edge

// FailureView presents a graph with edges and/or nodes removed, without
// copying it.
type FailureView = graph.FailureView

// NewGraph returns an empty undirected graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// FailEdges returns a view of g with the given edges removed.
func FailEdges(g *Graph, edges ...EdgeID) *FailureView { return graph.FailEdges(g, edges...) }

// FailNodes returns a view of g with the given nodes (and their incident
// edges) removed.
func FailNodes(g *Graph, nodes ...NodeID) *FailureView { return graph.FailNodes(g, nodes...) }

// Fail returns a view with both edges and nodes removed.
func Fail(g *Graph, edges []EdgeID, nodes []NodeID) *FailureView {
	return graph.Fail(g, edges, nodes)
}

// ShortestPath returns a shortest path from s to d in the (possibly
// failed) view, deterministically tie-broken, and whether d is reachable.
func ShortestPath(v graph.View, s, d NodeID) (Path, bool) {
	return spath.ShortestPath(v, s, d)
}

// Oracle memoizes shortest-path trees per source.
type Oracle = spath.Oracle

// NewOracle returns a distance/path oracle over v.
func NewOracle(v graph.View) *Oracle { return spath.NewOracle(v) }

// BaseSet is a set of pre-provisioned base paths (the LSPs restoration
// concatenates). See AllShortestPaths, OneShortestPathPerPair and
// ExplicitBase.
type BaseSet = paths.Base

// ExplicitBase is a materialized base set with inverted indexes.
type ExplicitBase = paths.Explicit

// AllShortestPaths returns the implicit base set containing every
// shortest path of g — the base set of the paper's main experiments.
func AllShortestPaths(g *Graph) BaseSet { return paths.NewAllShortest(g) }

// OneShortestPathPerPair returns the Theorem-3 base set: exactly one
// shortest path per ordered pair, selected by infinitesimal padding.
func OneShortestPathPerPair(g *Graph) BaseSet { return paths.NewUniqueShortest(g) }

// NewExplicitBase returns an empty materialized base set over g.
func NewExplicitBase(g *Graph) *ExplicitBase { return paths.NewExplicit(g) }

// Decomposition is a restoration path expressed as a concatenation of
// base paths and (in the weighted case) bare edges.
type Decomposition = core.Decomposition

// Component is one piece of a Decomposition.
type Component = core.Component

// Restorer computes restoration plans; Plan is one computed restoration.
type (
	Restorer = core.Restorer
	Plan     = core.Plan
)

// Strategy selects the decomposition algorithm.
type Strategy = core.Strategy

// Decomposition strategies: greedy largest-prefix (requires a
// subpath-closed base set such as AllShortestPaths) or Dijkstra on the
// graph of surviving base paths (any base set).
const (
	StrategyGreedy = core.StrategyGreedy
	StrategySparse = core.StrategySparse
)

// ErrDisconnected is returned when a failure partitions a pair.
var ErrDisconnected = core.ErrDisconnected

// NewRestorer returns a Restorer over the given base set.
func NewRestorer(base BaseSet, strategy Strategy) *Restorer {
	return core.NewRestorer(base, strategy)
}

// DecomposeGreedy splits target into the minimum number of components
// using the greedy largest-prefix rule (binary-searched), valid for
// subpath-closed base sets.
func DecomposeGreedy(base BaseSet, target Path) Decomposition {
	return core.DecomposeGreedy(base, target)
}

// DecomposeSparse finds a minimum-cost restoration as a concatenation of
// surviving base paths and edges, for any base set.
func DecomposeSparse(base BaseSet, fv *FailureView, s, d NodeID) (Decomposition, bool) {
	return core.DecomposeSparse(base, fv, s, d)
}
