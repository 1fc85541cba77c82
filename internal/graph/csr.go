package graph

import (
	"sync"
	"sync/atomic"
)

// CSRArc is one entry of the compiled flat adjacency (see CSR): the node an
// arc leads to, the edge it traverses, and that edge's weight inlined so the
// shortest-path relaxation loop needs no second memory load through the edge
// table.
type CSRArc struct {
	To   NodeID
	Edge EdgeID
	W    float64
}

// CSR is the compressed-sparse-row form of a graph's adjacency: all arcs in
// one flat slice, node u's arcs at Arcs(u). It is the read-only kernel the
// shortest-path engine iterates instead of calling a visitor closure per
// arc. Arc order within a node matches the insertion-ordered adjacency
// list, so algorithms that tie-break on iteration order behave identically
// on either representation.
//
// A CSR is immutable after construction and safe for concurrent use.
//
//rbpc:immutable
type CSR struct {
	off  []int32 // len n+1; arcs of node u are arcs[off[u]:off[u+1]]
	arcs []CSRArc
}

// Arcs returns the flat adjacency slice of u. Callers must not modify it.
//
//rbpc:hotpath
func (c *CSR) Arcs(u NodeID) []CSRArc { return c.arcs[c.off[u]:c.off[u+1]] }

// NumArcs returns the total number of arcs (2m for an undirected graph).
//
//rbpc:hotpath
func (c *CSR) NumArcs() int { return len(c.arcs) }

// Order returns the number of nodes the CSR was built for.
//
//rbpc:hotpath
func (c *CSR) Order() int { return len(c.off) - 1 }

// buildCSR compiles the graph's slice-of-slices adjacency into flat form.
func buildCSR(g *Graph) *CSR {
	n := g.Order()
	c := &CSR{off: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		total += len(g.adj[u])
	}
	c.arcs = make([]CSRArc, 0, total)
	for u := 0; u < n; u++ {
		c.off[u] = int32(len(c.arcs))
		for _, a := range g.adj[u] {
			c.arcs = append(c.arcs, CSRArc{To: a.To, Edge: a.Edge, W: g.edges[a.Edge].W})
		}
	}
	c.off[n] = int32(len(c.arcs))
	return c
}

// csrCache holds the lazily compiled CSR of a Graph. Mutations (AddNode,
// AddEdge) invalidate it; the next CSR() call recompiles. Reads go through
// an atomic pointer so the hot path is lock-free; the double-checked mutex
// only serializes the build, keeping concurrent readers from compiling the
// 40k-node Internet graph more than once.
type csrCache struct {
	mu sync.Mutex
	p  atomic.Pointer[CSR]
}

// invalidate drops the compiled form after a mutation.
func (c *csrCache) invalidate() { c.p.Store(nil) }

// CSR returns the compiled flat adjacency of g, building and caching it on
// first use. Like all Graph reads it is safe for concurrent use once
// construction is complete; a graph still being mutated must not call it
// concurrently (the cache is invalidated by AddNode/AddEdge).
func (g *Graph) CSR() *CSR {
	if c := g.csr.p.Load(); c != nil {
		return c
	}
	g.csr.mu.Lock()
	defer g.csr.mu.Unlock()
	if c := g.csr.p.Load(); c != nil {
		return c
	}
	c := buildCSR(g)
	g.csr.p.Store(c)
	return c
}

// Kernel is the flat, branch-cheap description of a View that the
// shortest-path engine's inner loops run on: the base graph's CSR plus the
// failure overlay's removal bitsets (nil when nothing of that kind is
// removed). A zero EdgeOff/NodeOff word test replaces the per-arc visitor
// closure of the View interface.
//
//rbpc:immutable
type Kernel struct {
	CSR     *CSR
	EdgeOff []uint64 // removed-edge bitset, nil if no edges removed
	NodeOff []uint64 // removed-node bitset, nil if no nodes removed
}

// EdgeRemoved reports whether edge id is masked off.
//
//rbpc:hotpath
func (k *Kernel) EdgeRemoved(id EdgeID) bool {
	return k.EdgeOff != nil && k.EdgeOff[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// NodeRemoved reports whether node id is masked off.
//
//rbpc:hotpath
func (k *Kernel) NodeRemoved(id NodeID) bool {
	return k.NodeOff != nil && k.NodeOff[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// ArcUsable reports whether a survives the overlay: neither its edge nor its
// head node is removed. (The tail node is the responsibility of the caller,
// which never expands a removed node.)
//
//rbpc:hotpath
func (k *Kernel) ArcUsable(a CSRArc) bool {
	return !k.EdgeRemoved(a.Edge) && !k.NodeRemoved(a.To)
}

// CompileView lowers a View to its Kernel. It succeeds for the two concrete
// view types this package defines — a whole *Graph and a *FailureView —
// and reports false for anything else, which no search can run on: the
// shortest-path engine (internal/spath) refuses such a view by panic.
func CompileView(v View) (Kernel, bool) {
	switch t := v.(type) {
	case *Graph:
		return Kernel{CSR: t.CSR()}, true
	case *FailureView:
		k := Kernel{CSR: t.g.CSR()}
		if len(t.removedEdges) > 0 {
			k.EdgeOff = t.edgeRemoved
		}
		if len(t.removedNodes) > 0 {
			k.NodeOff = t.nodeRemoved
		}
		return k, true
	}
	return Kernel{}, false
}
