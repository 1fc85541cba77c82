package paths

import "rbpc/internal/graph"

// Arc is a stored base path seen from one of its end nodes: the node at the
// other end, the path's base-view cost, and its base-set index (what
// core.Component.Base carries, less one). 16 bytes, so a column scan reads
// four arcs a cache line.
type Arc struct {
	Cost float64
	Peer int32
	Idx  int32
}

// ArcIndex is the base-path graph of an Explicit as two CSR-packed arc
// lists: the stored paths out of each node and the stored paths into each
// node, both in base-set index order. It is what the online engine's solve
// (core.Pull) reads: a restoration into d is decided by the arcs into d and
// the source's post-failure distance row, so the column a solve walks is
// the destination's, whole and unsorted — no order to maintain under
// failures, no per-epoch copy. Liveness is not here; it is one count per
// path, kept by a LiveIndex.
//
// An ArcIndex is immutable after construction and safe for concurrent use.
//
//rbpc:immutable
type ArcIndex struct {
	outOff, inOff []int32 // off[u]..off[u+1] bounds u's arcs
	out, in       []Arc
}

// newArcIndex lays b's paths out by source and by destination: two counting
// passes over the set, O(paths), each node's arcs in base-set index order.
//
//rbpc:ctor
func newArcIndex(b *Explicit) *ArcIndex {
	n := b.view.Order()
	ai := &ArcIndex{
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
		out:    make([]Arc, len(b.paths)),
		in:     make([]Arc, len(b.paths)),
	}
	for _, p := range b.paths {
		ai.outOff[p.Src()+1]++
		ai.inOff[p.Dst()+1]++
	}
	for u := 0; u < n; u++ {
		ai.outOff[u+1] += ai.outOff[u]
		ai.inOff[u+1] += ai.inOff[u]
	}
	outAt, inAt := make([]int32, n), make([]int32, n)
	copy(outAt, ai.outOff)
	copy(inAt, ai.inOff)
	for i, p := range b.paths {
		s, d := p.Src(), p.Dst()
		ai.out[outAt[s]] = Arc{Cost: b.costs[i], Peer: int32(d), Idx: int32(i)}
		ai.in[inAt[d]] = Arc{Cost: b.costs[i], Peer: int32(s), Idx: int32(i)}
		outAt[s]++
		inAt[d]++
	}
	return ai
}

// Out returns the stored paths starting at u, in base-set index order; Peer
// is each path's destination. Shared index state: callers must not modify
// the slice.
//
//rbpc:hotpath
func (ai *ArcIndex) Out(u graph.NodeID) []Arc { return ai.out[ai.outOff[u]:ai.outOff[u+1]] }

// In returns the stored paths ending at v, in base-set index order; Peer is
// each path's source. Shared index state: callers must not modify the
// slice.
//
//rbpc:hotpath
func (ai *ArcIndex) In(v graph.NodeID) []Arc { return ai.in[ai.inOff[v]:ai.inOff[v+1]] }
