// Package spath is the shortest-path engine of the RBPC reproduction.
//
// It provides single-source shortest paths (BFS on unit-weight views,
// Dijkstra otherwise) with deterministic lexicographic tie-breaking, a
// memoizing distance oracle, shortest-path counting (the paper's redundancy
// metric), and "infinitesimal padding" views that make shortest paths unique
// (the construction behind the paper's Theorem 3).
package spath

import (
	"math"
	"unsafe"

	"rbpc/internal/graph"
)

// Unreachable is the distance reported for nodes not reachable from the
// source.
const Unreachable = math.MaxFloat64

// Tree is a single-source shortest-path tree. Among equally short paths the
// tree holds the lexicographically least one by (hop count, parent node ID,
// parent edge ID), evaluated bottom-up, so trees are deterministic for a
// given view regardless of iteration order.
//
//rbpc:immutable
type Tree struct {
	Source graph.NodeID

	dist    []float64
	hops    []int32
	parent  []graph.NodeID // parent[v] is the predecessor of v; -1 at source/unreached
	parentE []graph.EdgeID // parentE[v] is the edge from parent[v] to v
}

// Dist returns the distance from the source to v, or Unreachable.
//
//rbpc:hotpath
func (t *Tree) Dist(v graph.NodeID) float64 { return t.dist[v] }

// Dists returns the tree's full distance row, indexed by node ID, with
// Unreachable at unreached nodes. The slice aliases the tree's internal
// storage — callers must not modify it. It exists so bulk consumers (the
// incremental epoch builder solves a source's restorations against its row,
// core.Pull) avoid a per-node accessor call and a defensive copy.
//
//rbpc:hotpath
func (t *Tree) Dists() []float64 { return t.dist }

// Hops returns the hop count of the tree path to v. It is meaningful only
// if Reached(v).
//
//rbpc:hotpath
func (t *Tree) Hops(v graph.NodeID) int { return int(t.hops[v]) }

// Reached reports whether v is reachable from the source.
//
//rbpc:hotpath
func (t *Tree) Reached(v graph.NodeID) bool { return t.dist[v] != Unreachable }

// Parent returns the tree predecessor of v and the connecting edge.
// At the source or an unreached node it returns (-1, -1).
//
//rbpc:hotpath
func (t *Tree) Parent(v graph.NodeID) (graph.NodeID, graph.EdgeID) {
	return t.parent[v], t.parentE[v]
}

// PathTo reconstructs the tree path from the source to v. The second result
// is false if v is unreachable.
func (t *Tree) PathTo(v graph.NodeID) (graph.Path, bool) {
	if !t.Reached(v) {
		return graph.Path{}, false
	}
	n := int(t.hops[v])
	p := graph.Path{
		Nodes: make([]graph.NodeID, n+1),
		Edges: make([]graph.EdgeID, n),
	}
	at := v
	for i := n; i > 0; i-- {
		p.Nodes[i] = at
		p.Edges[i-1] = t.parentE[at]
		at = t.parent[at]
	}
	p.Nodes[0] = at
	return p, true
}

// Compute runs the appropriate SSSP algorithm on v from src: BFS when all
// usable weights are 1, Dijkstra otherwise.
//
// Each call materializes a standalone *Tree. Hot loops that only need the
// distances and parents of the latest run should hold a Solver (or use
// AcquireSolver) and skip the materialization.
func Compute(v graph.View, src graph.NodeID) *Tree {
	s := AcquireSolver(v.Order())
	s.Solve(v, src)
	t := s.Tree()
	ReleaseSolver(s)
	return t
}

// allocTree returns a Tree of order n whose four label arrays share one
// zeroed allocation: the float64 distances first, then the three int32
// arrays packed into the words that follow. A tree is built once per
// (epoch, root) on the engine's failure path, where four allocations cost
// more than the labels they hold. This is the package's only unsafe code:
// the backing array holds no pointers, and the slices keep it alive.
//
//rbpc:ctor
func allocTree(n int, src graph.NodeID) *Tree {
	t := &Tree{Source: src}
	if n == 0 {
		return t
	}
	buf := make([]float64, n+(3*n+1)/2)
	ints := unsafe.Slice((*int32)(unsafe.Pointer(&buf[n])), 3*n)
	t.dist = buf[:n:n]
	t.hops = ints[:n:n]
	t.parent = ints[n : 2*n : 2*n]
	t.parentE = ints[2*n : 3*n : 3*n]
	return t
}

func newTree(n int, src graph.NodeID) *Tree {
	t := allocTree(n, src)
	for i := 0; i < n; i++ {
		t.dist[i] = Unreachable
		t.parent[i] = -1
		t.parentE[i] = -1
	}
	return t
}

// betterParent reports whether candidate (hops, parent node, parent edge)
// precedes the incumbent lexicographically.
//
//rbpc:hotpath
func betterParent(h int32, p graph.NodeID, e graph.EdgeID, ch int32, cp graph.NodeID, ce graph.EdgeID) bool {
	if h != ch {
		return h < ch
	}
	if p != cp {
		return p < cp
	}
	return e < ce
}

// ShortestPath returns a shortest path from s to d in v, or false if d is
// unreachable. The path is the deterministic tree path (see Tree).
func ShortestPath(v graph.View, s, d graph.NodeID) (graph.Path, bool) {
	return Compute(v, s).PathTo(d)
}
