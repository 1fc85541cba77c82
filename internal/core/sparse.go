package core

import (
	"rbpc/internal/graph"
	"rbpc/internal/paths"
)

// SparseSolver runs minimum-cost restoration-path searches on the
// "base-path graph" (surviving base paths and surviving bare edges as
// arcs) for one failure view, amortizing across calls everything that
// depends only on (base, fv): the dead-path mask and the Dijkstra scratch
// arrays. It is the reference the online engine's pull (Pull) is checked
// against — the FullRebuild plan solves with it.
//
// A SparseSolver is not safe for concurrent use.
type SparseSolver struct {
	base paths.Base
	fv   *graph.FailureView
	orig graph.View

	ex   *paths.Explicit // nil when base is not materialized
	arcs *paths.ArcIndex // ex's arc lists
	dead []bool          // ex's dead-path mask under fv

	// kern is the compiled flat form of fv (CSR + removal bitsets): the
	// raw-edge scan iterates it directly instead of paying a visitor closure
	// call per arc.
	kern graph.Kernel

	// Dijkstra scratch, validity-stamped by generation: a lab entry is
	// meaningful only where its gen matches curGen. Starting a search is
	// one counter increment instead of an O(n) clear — the per-source setup
	// cost of a batched multi-target solve is the nodes it actually visits.
	// prevComp lives apart from lab: a Component is several words and is
	// written once per committed offer, while lab is read on every scanned
	// candidate and wants the densest possible packing.
	lab      []sparseLabel
	curGen   uint32
	prevComp []Component
	pq       sparseHeap
}

// sparseLabel packs one node's Dijkstra scratch — distance label, component
// count, predecessor, generation stamp and flags — into 24 bytes so the
// candidate test touches a single cache line where parallel arrays cost
// several misses per scanned candidate.
type sparseLabel struct {
	dist     float64
	gen      uint32
	prev     int32
	comps    int32
	settled  bool
	isTarget bool
}

// NewSparseSolver builds a solver for repeated decompositions against fv.
func NewSparseSolver(base paths.Base, fv *graph.FailureView) *SparseSolver {
	n := fv.Order()
	ss := &SparseSolver{
		base:     base,
		fv:       fv,
		orig:     base.View(),
		lab:      make([]sparseLabel, n),
		prevComp: make([]Component, n),
	}
	if ex, ok := base.(*paths.Explicit); ok {
		ss.ex, ss.arcs = ex, ex.ArcIndex()
		ss.dead = ex.DeadUnderInto(fv, nil)
	}
	ss.kern, _ = graph.CompileView(fv) // a *FailureView always compiles
	return ss
}

// DecomposeSparse finds a minimum-cost restoration path from s to d in the
// failure view fv expressed directly as a concatenation of surviving base
// paths and surviving bare edges, by running Dijkstra on the "base-path
// graph" (the paper's fallback when the greedy does not apply: "Dijkstra's
// algorithm can be run on the graph in which the surviving base paths are
// edges").
//
// Among minimum-cost concatenations it returns one minimizing the number of
// components. The second result is false if d is unreachable from s in fv.
//
// Because every surviving raw edge is always a candidate component, the
// returned concatenation always achieves the true post-failure shortest
// distance, for any base set.
func DecomposeSparse(base paths.Base, fv *graph.FailureView, s, d graph.NodeID) (Decomposition, bool) {
	decs, oks := NewSparseSolver(base, fv).From(s, []graph.NodeID{d})
	return decs[0], oks[0]
}

// DecomposeSparseFrom solves the base-path shortest path problem for one
// source against many destinations with a single Dijkstra run, stopping as
// soon as every requested destination is settled. It returns one
// decomposition per entry of dsts (aligned), with oks[i] false when
// dsts[i] is unreachable from s in fv.
//
// This is the batched form: all pairs sharing a source are decomposed in
// one search instead of |dsts| independent ones. Callers making repeated
// calls against the same view should hold a SparseSolver and call From
// directly.
func DecomposeSparseFrom(base paths.Base, fv *graph.FailureView, s graph.NodeID, dsts []graph.NodeID) ([]Decomposition, []bool) {
	return NewSparseSolver(base, fv).From(s, dsts)
}

// From runs one multi-destination search. See DecomposeSparseFrom.
func (ss *SparseSolver) From(s graph.NodeID, dsts []graph.NodeID) ([]Decomposition, []bool) {
	decs := make([]Decomposition, len(dsts))
	oks := make([]bool, len(dsts))
	if len(dsts) == 0 {
		return decs, oks
	}
	fv := ss.fv
	n := fv.Order()
	if !fv.NodeUsable(s) {
		return decs, oks
	}

	// Reset scratch by advancing the search generation: entries stamped
	// with an older generation are treated as untouched. On the rare
	// uint32 wrap, invalidate every stamp explicitly.
	ss.curGen++
	if ss.curGen == 0 {
		clear(ss.lab)
		ss.curGen = 1
	}
	ss.pq = ss.pq[:0]

	// Pending destinations still to settle; s==d pairs are trivially done.
	pending := 0
	for i, d := range dsts {
		if d == s {
			oks[i] = true
			continue
		}
		if !fv.NodeUsable(d) {
			continue
		}
		ss.stamp(d)
		if !ss.lab[d].isTarget {
			ss.lab[d].isTarget = true
			pending++
		}
	}
	if pending == 0 {
		return decs, oks
	}
	pq := &ss.pq
	ss.stamp(s)
	ss.lab[s].dist = 0
	ss.lab[s].comps = 0
	pq.push(sparseItem{node: s, cost: 0, comps: 0})

	for len(*pq) > 0 {
		it := pq.pop()
		u := it.node
		lu := &ss.lab[u]
		if lu.settled || it.cost != lu.dist || it.comps != lu.comps {
			continue
		}
		lu.settled = true
		if lu.isTarget {
			pending--
			if pending == 0 {
				break
			}
		}
		du := lu.dist
		cu := lu.comps
		// Candidate 1: surviving base paths out of u. Considered before
		// raw edges so that at equal (cost, components) a pre-provisioned
		// base path wins over a bare edge — a bare-edge component would
		// need a fresh 1-hop LSP.
		switch {
		case ss.ex != nil:
			// A materialized base set's arcs out of u, in base-set index
			// order. An empty set has no arcs and an empty mask.
			for _, a := range ss.arcs.Out(u) {
				if ss.dead[a.Idx] {
					continue
				}
				v := graph.NodeID(a.Peer)
				if total, tc := du+a.Cost, cu+1; ss.offer(v, total, tc) {
					ss.commit(u, v, total, tc, Component{Kind: KindBasePath, Path: ss.ex.All()[a.Idx], Base: a.Idx + 1})
				}
			}
		default:
			for v := 0; v < n; v++ {
				vv := graph.NodeID(v)
				if vv == u || !fv.NodeUsable(vv) {
					continue
				}
				if p, ok := ss.base.Between(u, vv); ok && paths.Survives(p, fv) {
					if total, tc := du+p.CostIn(ss.orig), cu+1; ss.offer(vv, total, tc) {
						ss.commit(u, vv, total, tc, Component{Kind: KindBasePath, Path: p})
					}
				}
			}
		}
		// Candidate 2: surviving raw edges out of u, off the flat CSR
		// adjacency with bitset removal tests; the 2-node component is built
		// only for accepted offers.
		for _, a := range ss.kern.CSR.Arcs(u) {
			if !ss.kern.ArcUsable(a) {
				continue
			}
			if total, tc := du+a.W, cu+1; ss.offer(a.To, total, tc) {
				ss.commit(u, a.To, total, tc, Component{Kind: KindEdge, Path: graph.Path{
					Nodes: []graph.NodeID{u, a.To},
					Edges: []graph.EdgeID{a.Edge},
				}})
			}
		}
	}

	for i, d := range dsts {
		if d == s || !fv.NodeUsable(d) {
			continue
		}
		if l := &ss.lab[d]; l.gen != ss.curGen || l.dist < 0 || !l.settled {
			continue
		}
		// Reconstruct components back from d.
		var rev []Component
		for at := d; at != s; at = graph.NodeID(ss.lab[at].prev) {
			rev = append(rev, ss.prevComp[at])
		}
		dec := Decomposition{Components: make([]Component, len(rev))}
		for j := range rev {
			dec.Components[j] = rev[len(rev)-1-j]
		}
		decs[i], oks[i] = dec, true
	}
	return decs, oks
}

// stamp brings v's scratch entries into the current search generation,
// resetting them to the untouched state if they carry an older stamp.
//
//rbpc:hotpath
func (ss *SparseSolver) stamp(v graph.NodeID) {
	l := &ss.lab[v]
	if l.gen != ss.curGen {
		l.gen = ss.curGen
		l.dist = -1 // -1 == infinity marker
		l.prev = -1
		l.settled = false
		l.isTarget = false
	}
}

// offer reports whether a label of (total, tc) improves v's — the Dijkstra
// acceptance test, shared by every candidate scan so the tie-break stays
// identical across them. A node first touched this search always accepts
// (its label is infinity), without re-reading the marker it just wrote.
//
//rbpc:hotpath
func (ss *SparseSolver) offer(v graph.NodeID, total float64, tc int32) bool {
	l := &ss.lab[v]
	if l.gen != ss.curGen {
		l.gen = ss.curGen
		l.dist = -1
		l.prev = -1
		l.settled = false
		l.isTarget = false
		return true
	}
	return l.dist < 0 || total < l.dist || (total == l.dist && tc < l.comps)
}

// commit installs an accepted offer on v and pushes it on the frontier.
func (ss *SparseSolver) commit(u, v graph.NodeID, total float64, tc int32, comp Component) {
	l := &ss.lab[v]
	l.dist = total
	l.comps = tc
	l.prev = int32(u)
	ss.prevComp[v] = comp
	ss.pq.push(sparseItem{node: v, cost: total, comps: tc})
}

// sparseItem orders Dijkstra's frontier by (cost, component count, node ID).
type sparseItem struct {
	node  graph.NodeID
	cost  float64
	comps int32
}

// sparseHeap is a concrete binary min-heap over sparseItem. It replaces
// container/heap on the solver's hottest loop: the interface-based API
// boxes every pushed item onto the heap (one allocation per relaxation).
// The (cost, comps, node) key is a total order and commit never pushes the
// same triple twice, so the pop sequence is uniquely determined by the
// item set — any conforming heap, this one included, is observationally
// identical to the previous implementation.
type sparseHeap []sparseItem

func sparseLess(a, b sparseItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.comps != b.comps {
		return a.comps < b.comps
	}
	return a.node < b.node
}

func (h *sparseHeap) push(it sparseItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !sparseLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *sparseHeap) pop() sparseItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(s) && sparseLess(s[l], s[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(s) && sparseLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
