package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a walk through a graph: a sequence of nodes and the explicit edges
// connecting them. Edges are explicit because multigraphs can have several
// edges between the same endpoints. A path with a single node and no edges
// is the trivial path at that node.
//
// Invariant: len(Nodes) == len(Edges)+1, and Edges[i] joins Nodes[i] and
// Nodes[i+1] (in either orientation for undirected graphs). Use Validate to
// check a path against a particular graph view.
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Trivial returns the zero-length path at node u.
func Trivial(u NodeID) Path {
	return Path{Nodes: []NodeID{u}}
}

// Src returns the first node of the path.
func (p Path) Src() NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Hops returns the number of edges.
func (p Path) Hops() int { return len(p.Edges) }

// IsTrivial reports whether the path has no edges.
func (p Path) IsTrivial() bool { return len(p.Edges) == 0 }

// CostIn returns the total weight of the path under view v. The trivial
// path costs 0.
func (p Path) CostIn(v View) float64 {
	var c float64
	for _, e := range p.Edges {
		c += v.Edge(e).W
	}
	return c
}

// Validate checks the structural invariant and that every edge (1) exists in
// v, (2) is usable (not failed), and (3) joins consecutive nodes with the
// right orientation for directed views. It resolves the view once a path:
// on a *Graph every hop is checked on the graph's own edges, and every edge
// is usable there.
func (p Path) Validate(v View) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if len(p.Nodes) != len(p.Edges)+1 {
		return fmt.Errorf("graph: path has %d nodes and %d edges", len(p.Nodes), len(p.Edges))
	}
	g, whole := v.(*Graph)
	m, directed := v.Size(), v.Directed()
	for i, id := range p.Edges {
		u, w := p.Nodes[i], p.Nodes[i+1]
		if id < 0 || int(id) >= m {
			return fmt.Errorf("graph: path step %d uses edge %d, and the view has %d edges", i, id, m)
		}
		var e Edge
		if whole {
			e = g.edges[id]
		} else {
			e = v.Edge(id)
		}
		if directed {
			if e.U != u || e.V != w {
				return fmt.Errorf("graph: edge %d is (%d->%d), path uses it as (%d->%d)", id, e.U, e.V, u, w)
			}
		} else if !(e.U == u && e.V == w) && !(e.U == w && e.V == u) {
			return fmt.Errorf("graph: edge %d is (%d,%d), path step %d is (%d,%d)", id, e.U, e.V, i, u, w)
		}
		if !whole && !arcUsable(v, id, u, w) {
			return fmt.Errorf("graph: edge %d (%d,%d) not usable at step %d", id, u, w, i)
		}
	}
	return nil
}

// arcUsable reports whether edge id, which joins u to w the way v's
// orientation allows, is traversable out of u in v: whether it appears as
// an arc out of u.
func arcUsable(v View, id EdgeID, u, w NodeID) bool {
	usable := false
	v.VisitArcs(u, func(a Arc) bool {
		if a.Edge == id && a.To == w {
			usable = true
			return false
		}
		return true
	})
	return usable
}

// IsSimple reports whether no node repeats.
func (p Path) IsSimple() bool {
	seen := make(map[NodeID]struct{}, len(p.Nodes))
	for _, n := range p.Nodes {
		if _, dup := seen[n]; dup {
			return false
		}
		seen[n] = struct{}{}
	}
	return true
}

// HasEdge reports whether the path traverses edge id.
func (p Path) HasEdge(id EdgeID) bool {
	for _, e := range p.Edges {
		if e == id {
			return true
		}
	}
	return false
}

// HasNode reports whether the path visits node id.
func (p Path) HasNode(id NodeID) bool {
	for _, n := range p.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// HasInteriorNode reports whether the path visits node id strictly between
// its endpoints. Router-failure restoration uses this: a base path is broken
// by a router failure only if the router is interior (an endpoint failing
// means there is no traffic to restore).
func (p Path) HasInteriorNode(id NodeID) bool {
	for i := 1; i < len(p.Nodes)-1; i++ {
		if p.Nodes[i] == id {
			return true
		}
	}
	return false
}

// SubPath returns the path restricted to node positions [i, j] (inclusive).
// SubPath(0, Hops()) is the whole path; SubPath(i, i) is trivial.
func (p Path) SubPath(i, j int) Path {
	if i < 0 || j > p.Hops() || i > j {
		panic(fmt.Sprintf("graph: SubPath(%d,%d) of %d-hop path", i, j, p.Hops()))
	}
	return Path{
		Nodes: p.Nodes[i : j+1],
		Edges: p.Edges[i:j],
	}
}

// Concat returns p followed by q. It panics unless p ends where q starts.
// The result shares no backing arrays with p or q.
func (p Path) Concat(q Path) Path {
	if p.Dst() != q.Src() {
		panic(fmt.Sprintf("graph: Concat of path ending at %d with path starting at %d", p.Dst(), q.Src()))
	}
	r := Path{
		Nodes: make([]NodeID, 0, len(p.Nodes)+len(q.Nodes)-1),
		Edges: make([]EdgeID, 0, len(p.Edges)+len(q.Edges)),
	}
	r.Nodes = append(r.Nodes, p.Nodes...)
	r.Nodes = append(r.Nodes, q.Nodes[1:]...)
	r.Edges = append(r.Edges, p.Edges...)
	r.Edges = append(r.Edges, q.Edges...)
	return r
}

// Reverse returns the path traversed backwards. Reversal of a directed
// path is generally not a valid path in a directed view.
func (p Path) Reverse() Path {
	r := Path{
		Nodes: make([]NodeID, len(p.Nodes)),
		Edges: make([]EdgeID, len(p.Edges)),
	}
	for i, n := range p.Nodes {
		r.Nodes[len(p.Nodes)-1-i] = n
	}
	for i, e := range p.Edges {
		r.Edges[len(p.Edges)-1-i] = e
	}
	return r
}

// Clone returns a deep copy of p.
func (p Path) Clone() Path {
	return Path{
		Nodes: append([]NodeID(nil), p.Nodes...),
		Edges: append([]EdgeID(nil), p.Edges...),
	}
}

// Equal reports whether p and q traverse exactly the same nodes and edges.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// String renders the path as "0-(e3)-4-(e7)-2".
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", p.Nodes[0])
	for i, e := range p.Edges {
		fmt.Fprintf(&b, "-(e%d)-%d", e, p.Nodes[i+1])
	}
	return b.String()
}

// Key returns a compact string identifying the path's edge sequence plus its
// endpoints ("src:e0,e1,...,:dst"), suitable as a map key (e.g. for
// deduplicating base paths). It formats into a stack buffer and allocates
// only the returned string.
func (p Path) Key() string {
	var buf [96]byte
	return string(p.AppendKey(buf[:0]))
}

// AppendKey appends p's Key to b and returns the extended buffer, so that
// many keys can be cut from one allocation.
func (p Path) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.Nodes[0]), 10)
	b = append(b, ':')
	for _, e := range p.Edges {
		b = strconv.AppendInt(b, int64(e), 10)
		b = append(b, ',')
	}
	b = append(b, ':')
	return strconv.AppendInt(b, int64(p.Dst()), 10)
}
