package graph

// FailureView presents a graph with a set of edges and/or nodes removed,
// without copying the graph. It is the G' = (V, E - E_k) of the paper's
// theorems.
//
// A FailureView is immutable after construction and safe for concurrent use.
//
//rbpc:immutable
type FailureView struct {
	g            *Graph
	edgeRemoved  bitset
	nodeRemoved  bitset
	removedEdges []EdgeID
	removedNodes []NodeID
	unit         bool
}

// Fail returns a view of g with the given edges and nodes removed. Removing
// a node implicitly removes all of its incident edges from traversal (their
// IDs are not listed in RemovedEdges). Duplicate IDs are tolerated.
//
//rbpc:ctor
func Fail(g *Graph, edges []EdgeID, nodes []NodeID) *FailureView {
	v := &FailureView{
		g:           g,
		edgeRemoved: newBitset(g.Size()),
		nodeRemoved: newBitset(g.Order()),
		unit:        g.UnitWeights(),
	}
	for _, e := range edges {
		if !v.edgeRemoved.get(int(e)) {
			v.edgeRemoved.set(int(e))
			v.removedEdges = append(v.removedEdges, e)
		}
	}
	for _, n := range nodes {
		if !v.nodeRemoved.get(int(n)) {
			v.nodeRemoved.set(int(n))
			v.removedNodes = append(v.removedNodes, n)
		}
	}
	return v
}

// FailEdges returns a view of g with the given edges removed.
func FailEdges(g *Graph, edges ...EdgeID) *FailureView {
	return Fail(g, edges, nil)
}

// FailNodes returns a view of g with the given nodes removed.
func FailNodes(g *Graph, nodes ...NodeID) *FailureView {
	return Fail(g, nil, nodes)
}

// Base returns the underlying unfailed graph.
func (v *FailureView) Base() *Graph { return v.g }

// RemovedEdges returns the explicitly removed edge IDs (deduplicated, in
// first-seen order). Edges incident to removed nodes are not included.
func (v *FailureView) RemovedEdges() []EdgeID { return v.removedEdges }

// RemovedNodes returns the removed node IDs (deduplicated, first-seen order).
func (v *FailureView) RemovedNodes() []NodeID { return v.removedNodes }

// EdgeUsable reports whether edge id survives in this view: neither the edge
// nor either endpoint is removed.
func (v *FailureView) EdgeUsable(id EdgeID) bool {
	if v.edgeRemoved.get(int(id)) {
		return false
	}
	e := v.g.Edge(id)
	return !v.nodeRemoved.get(int(e.U)) && !v.nodeRemoved.get(int(e.V))
}

// NodeUsable reports whether node id survives in this view.
func (v *FailureView) NodeUsable(id NodeID) bool {
	return !v.nodeRemoved.get(int(id))
}

// Order implements View.
func (v *FailureView) Order() int { return v.g.Order() }

// Size implements View.
func (v *FailureView) Size() int { return v.g.Size() }

// Directed implements View.
func (v *FailureView) Directed() bool { return v.g.Directed() }

// Edge implements View.
func (v *FailureView) Edge(id EdgeID) Edge { return v.g.Edge(id) }

// UnitWeights implements View.
func (v *FailureView) UnitWeights() bool { return v.unit }

// VisitArcs implements View, skipping removed edges and edges leading to or
// from removed nodes.
func (v *FailureView) VisitArcs(u NodeID, visit func(Arc) bool) {
	if v.nodeRemoved.get(int(u)) {
		return
	}
	for _, a := range v.g.Arcs(u) {
		if v.edgeRemoved.get(int(a.Edge)) || v.nodeRemoved.get(int(a.To)) {
			continue
		}
		if !visit(a) {
			return
		}
	}
}

var _ View = (*FailureView)(nil)

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
