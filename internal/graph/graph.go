// Package graph implements the network model used throughout the RBPC
// reproduction: an undirected (optionally directed) weighted multigraph with
// dense integer vertex IDs, plus lightweight failure overlays that present a
// subgraph with edges or nodes removed without copying the graph.
//
// Parallel edges are first-class (each edge has its own ID) because the
// paper's Theorem-3 discussion relies on graphs with two parallel edges
// between consecutive nodes.
package graph

import (
	"cmp"
	"fmt"
	"math"
)

// NodeID identifies a vertex. IDs are dense: a graph with n nodes uses IDs
// 0..n-1.
type NodeID = int32

// EdgeID identifies an edge. IDs are dense: a graph with m edges uses IDs
// 0..m-1. Parallel edges have distinct IDs.
type EdgeID = int32

// Edge is an edge of the graph. For undirected graphs U < V is not
// guaranteed; U and V are stored in insertion order.
type Edge struct {
	ID EdgeID
	U  NodeID
	V  NodeID
	// W is the edge weight (its OSPF-like cost). Weights must be positive.
	W float64
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d,%d)", x, e.ID, e.U, e.V))
}

// Arc is an adjacency-list entry: the edge to traverse and the node it leads
// to.
type Arc struct {
	Edge EdgeID
	To   NodeID
}

// NodePair is an ordered source-destination pair: the unit the serving
// layer lists a link failure's affected pairs in.
type NodePair struct {
	Src, Dst NodeID
}

// Compare orders pairs by source, then destination — the (src, dst) order
// affected-pair lists are kept in.
func (p NodePair) Compare(q NodePair) int {
	return cmp.Or(cmp.Compare(p.Src, q.Src), cmp.Compare(p.Dst, q.Dst))
}

// Graph is a weighted multigraph. The zero value is an empty undirected
// graph ready for use. Graphs are append-only: nodes and edges can be added
// but not removed; removal is modeled by overlays (see View and the
// Fail* functions in this package).
//
// Graph is not safe for concurrent mutation; concurrent reads are safe once
// construction is complete.
type Graph struct {
	directed bool
	edges    []Edge
	adj      [][]Arc // outgoing arcs per node (both directions if undirected)
	names    []string
	unit     bool     // true while every edge has weight exactly 1
	csr      csrCache // lazily compiled flat adjacency (see CSR)
}

// New returns an empty undirected graph with n nodes (IDs 0..n-1).
func New(n int) *Graph {
	return &Graph{adj: make([][]Arc, n), unit: true}
}

// NewDirected returns an empty directed graph with n nodes. Directed graphs
// exist in this repository only to demonstrate the paper's directed
// counterexample (Figure 5); all RBPC machinery operates on undirected
// graphs.
func NewDirected(n int) *Graph {
	g := New(n)
	g.directed = true
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Order returns the number of nodes.
func (g *Graph) Order() int { return len(g.adj) }

// Size returns the number of edges.
func (g *Graph) Size() int { return len(g.edges) }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.csr.invalidate()
	g.adj = append(g.adj, nil)
	if g.names != nil {
		g.names = append(g.names, "")
	}
	return NodeID(len(g.adj) - 1)
}

// AddEdge appends an edge between u and v with weight w and returns its ID.
// It panics if either endpoint is out of range, if w is not positive and
// finite, or if u == v (self-loops never participate in shortest paths).
func (g *Graph) AddEdge(u, v NodeID, w float64) EdgeID {
	if int(u) >= len(g.adj) || u < 0 || int(v) >= len(g.adj) || v < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d nodes", u, v, len(g.adj)))
	}
	if u == v {
		panic(fmt.Sprintf("graph: AddEdge self-loop at node %d", u))
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: AddEdge weight %v must be positive and finite", w))
	}
	g.csr.invalidate()
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Arc{Edge: id, To: v})
	if !g.directed {
		g.adj[v] = append(g.adj[v], Arc{Edge: id, To: u})
	}
	if w != 1 {
		g.unit = false
	}
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return g.edges[id]
}

// Edges returns the backing slice of all edges. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Arcs returns the adjacency list of u. Callers must not modify it.
func (g *Graph) Arcs(u NodeID) []Arc { return g.adj[u] }

// Degree returns the number of arcs incident to u (out-degree if directed).
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// UnitWeights reports whether every edge has weight exactly 1, i.e. the
// graph is effectively unweighted and hop count equals cost.
func (g *Graph) UnitWeights() bool { return g.unit }

// SetName assigns a human-readable name to node u.
func (g *Graph) SetName(u NodeID, name string) {
	if g.names == nil {
		g.names = make([]string, len(g.adj))
	}
	g.names[u] = name
}

// Name returns the name of node u, or "v<ID>" if none was assigned.
func (g *Graph) Name(u NodeID) string {
	if g.names != nil && g.names[u] != "" {
		return g.names[u]
	}
	return fmt.Sprintf("v%d", u)
}

// AvgDegree returns the average node degree, counting each undirected edge
// at both endpoints (the convention used by the paper's Table 1).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	factor := 2.0
	if g.directed {
		factor = 1.0
	}
	return factor * float64(len(g.edges)) / float64(len(g.adj))
}

// FindEdge returns the ID of the minimum-weight edge between u and v, and
// whether one exists.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	best := EdgeID(-1)
	bestW := math.Inf(1)
	for _, a := range g.adj[u] {
		if a.To == v && g.edges[a.Edge].W < bestW {
			best, bestW = a.Edge, g.edges[a.Edge].W
		}
	}
	return best, best >= 0
}

// View is a read-only subgraph interface accepted by the shortest-path
// engine. A *Graph is itself a View of the whole network; failure overlays
// provide Views with elements removed.
type View interface {
	// Order returns the number of nodes of the underlying graph. Removed
	// nodes keep their IDs; they simply have no usable arcs.
	Order() int
	// Size returns the number of edges of the underlying graph: edge IDs
	// run 0..Size()-1. Removed edges keep their IDs.
	Size() int
	// Directed reports whether arcs may only be traversed from U to V.
	Directed() bool
	// Edge returns the edge record for id.
	Edge(id EdgeID) Edge
	// VisitArcs calls visit for every usable arc out of u until visit
	// returns false. If u itself is removed, no arcs are visited.
	VisitArcs(u NodeID, visit func(Arc) bool)
	// UnitWeights reports whether all usable edges have weight 1.
	UnitWeights() bool
}

// VisitArcs implements View for the whole graph.
func (g *Graph) VisitArcs(u NodeID, visit func(Arc) bool) {
	for _, a := range g.adj[u] {
		if !visit(a) {
			return
		}
	}
}

var _ View = (*Graph)(nil)
