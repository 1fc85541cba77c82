package core

import (
	"math"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
)

// boundSlack is the comparison slack FromBounded allows when testing an
// offer against a distance bound: the bound comes from a CSR SSSP whose
// additions may associate differently than the base-path-graph sums, so a
// strict comparison could misjudge an exact tie by a few ulps. The slack is
// relative (≈1e-9·bound) — far above accumulated rounding, far below any
// genuine cost difference on the weight scales in use — and only ever
// retains extra transient offers, never changing final labels.
func boundSlack(b float64) float64 { return 1e-9 * (b + 1) }

// DeadIndexed is the optional interface of a materialized base set (see
// paths.Explicit): every stored path out of a node with its precomputed
// base-view cost, and a per-failure-view dead-path mask indexed by
// SourcePath.Index. With it the sparse decomposer iterates a node's outgoing
// paths directly instead of probing all n possible endpoints through
// per-pair lookups, and survival of a candidate is one bit load instead of
// an edge scan. The mask builder reuses caller-owned scratch, so a pooled
// solver rebuilds its mask on Rebind without a per-epoch allocation.
type DeadIndexed interface {
	FromSource(s graph.NodeID) []paths.SourcePath
	DeadUnderInto(fv *graph.FailureView, dead []bool) []bool
}

// LiveColumns is a pre-filtered candidate source (see paths.LiveIndex):
// per source, the candidates in ascending (cost, insertion index) order,
// already restricted to paths that survive the solver's failure view, in a
// flat structure-of-arrays layout whose third column names each candidate
// by its base-set index (what Component.Base carries, and what PathAt
// takes). With one installed (SetLiveIndex) searches scan each settled
// node's candidates cheapest-first — reading only the rejection columns and
// fetching the path value solely for candidates they relax — with no
// per-candidate liveness test at all: the filtering was paid once per
// epoch, only for sources the failure delta touched. Bounded searches stop
// a node's scan at the first candidate that cannot reach any pending
// destination within its distance bound. The caller owns the contract that
// the index's failure state matches the solver's view.
type LiveColumns interface {
	LiveFromSource(u graph.NodeID) (costs []float64, dsts []int32, idx []int32)
	PathAt(idx int32) graph.Path
}

// SparseSolver runs minimum-cost restoration-path searches on the
// "base-path graph" (surviving base paths and surviving bare edges as
// arcs) for one failure view, amortizing across calls everything that
// depends only on (base, fv): the dead-path mask and the Dijkstra scratch
// arrays. The online engine keeps one solver per build worker per epoch.
//
// A SparseSolver is not safe for concurrent use.
type SparseSolver struct {
	base paths.Base
	fv   *graph.FailureView
	orig graph.View

	src DeadIndexed // nil when base is not materialized
	lc  LiveColumns // nil unless installed with SetLiveIndex
	// lcShadowsArcs records that the live index attests edge-completeness:
	// every usable arc is preceded in the candidate scan by a live 1-hop
	// base path of identical cost, so the raw-edge scan can only produce
	// offers that lose the first-offer-wins tie and is skipped wholesale.
	lcShadowsArcs bool
	dead          []bool // src's dead-path mask under fv; stale while lc is installed

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
// count, predecessor, generation stamp, flags, and the search's
// slack-adjusted bound for the node — into 32 bytes so the hot candidate
// test (bound rejection + offer) touches a single cache line where parallel
// arrays cost several misses per scanned candidate.
//
// bnd sits outside the generation-stamp contract: a bounded search fills it
// for every node up front (sequentially, before the frontier runs), and the
// stamp/offer resets preserve it.
type sparseLabel struct {
	dist     float64
	bnd      float64
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
	if di, ok := base.(DeadIndexed); ok {
		ss.src = di
		ss.dead = di.DeadUnderInto(fv, nil)
	}
	ss.kern, _ = graph.CompileView(fv) // a *FailureView always compiles
	return ss
}

// Rebind points an existing solver at a new failure view over the same
// base set, reusing every scratch allocation (the Dijkstra arrays, the
// heap, and — when the base supports DeadUnderInto — the dead-path mask).
// The online engine's worker pool holds one solver per worker across
// epochs and rebinds instead of rebuilding.
func (ss *SparseSolver) Rebind(fv *graph.FailureView) {
	if n := fv.Order(); n != len(ss.lab) {
		ss.lab = make([]sparseLabel, n)
		ss.curGen = 0
		ss.prevComp = make([]Component, n)
	}
	ss.fv = fv
	// With a live index installed the dead mask is never consulted, and
	// rebuilding it would be the exact O(paths) per-epoch cost the live
	// index exists to avoid.
	if ss.lc == nil && ss.src != nil {
		ss.dead = ss.src.DeadUnderInto(fv, ss.dead)
	}
	ss.kern, _ = graph.CompileView(fv) // a *FailureView always compiles
}

// SetLiveIndex installs a pre-filtered candidate source whose failure state
// the caller keeps in sync with the solver's view (see paths.LiveIndex):
// the candidate scan walks the live columns cheapest-first with no
// per-candidate dead test. Results are identical to the insertion-order
// dead-mask scan — the Dijkstra labels are path properties, filtering
// removes exactly the candidates the mask would reject, and the (cost,
// insertion index) order of the rest preserves the first-best-offer
// tie-break.
// Passing nil uninstalls it and restores the dead mask from the current
// view.
func (ss *SparseSolver) SetLiveIndex(lc LiveColumns) {
	ss.lc = lc
	ss.lcShadowsArcs = false
	if ec, ok := lc.(interface{ EdgeComplete() bool }); ok {
		ss.lcShadowsArcs = ec.EdgeComplete()
	}
	if lc == nil && ss.src != nil {
		ss.dead = ss.src.DeadUnderInto(ss.fv, ss.dead)
	}
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
// This is the batched form the online engine uses: after a failure burst,
// all affected pairs sharing a source are decomposed in one search instead
// of |dsts| independent ones. Callers making repeated calls against the
// same view should hold a SparseSolver and call From directly.
func DecomposeSparseFrom(base paths.Base, fv *graph.FailureView, s graph.NodeID, dsts []graph.NodeID) ([]Decomposition, []bool) {
	return NewSparseSolver(base, fv).From(s, dsts)
}

// From runs one multi-destination search. See DecomposeSparseFrom.
func (ss *SparseSolver) From(s graph.NodeID, dsts []graph.NodeID) ([]Decomposition, []bool) {
	return ss.search(s, dsts, nil, nil, 0)
}

// FromBounded is From pruned by known true distances: bound[v] must be the
// post-failure shortest distance from s to v in the solver's failure view
// (values ≥ inf meaning unreachable), as produced by a CSR SSSP over the
// same view. Because the base-path graph always contains every surviving
// bare edge, its shortest distances coincide with the view's, so offers
// that exceed a node's bound are transient labels Dijkstra would overwrite
// anyway — pruning them (plus skipping provably-unreachable destinations
// and, with a live index installed, cutting each candidate scan at the
// remaining budget) changes nothing in the returned decompositions, which
// stay bit-identical to From. A small relative slack absorbs float
// association noise between the two cost sums.
//
// This is the online engine's incremental-rebuild kernel: the true
// distances come nearly free from the epoch's oracle trees, and turn the
// dominant per-source scan from O(all candidates) into O(candidates within
// the affected radius).
func (ss *SparseSolver) FromBounded(s graph.NodeID, dsts []graph.NodeID, bound []float64, inf float64) ([]Decomposition, []bool) {
	if len(bound) < ss.fv.Order() {
		return ss.search(s, dsts, nil, nil, 0) // malformed bound: fall back to exact unbounded search
	}
	return ss.search(s, dsts, bound, nil, inf)
}

// FromBoundedEllipse is FromBounded additionally armed with reverse
// distances toward the destination set: rev[v] must be a lower bound on
// (in practice, exactly) the post-failure shortest distance from v to the
// nearest requested destination that is reachable from s and distinct
// from it — for an undirected view, min over those d of Tree(d).Dist(v).
//
// Forward and reverse distances together confine the search to the
// "ellipse" of nodes that can lie on some optimal concatenation: any v
// with bound[v] + rev[v] beyond the farthest destination's bound is
// useless, and every offer into it is dropped by writing a -Inf bound
// into its label at fill time — zero extra work in the candidate scans.
// The prune is closed under optimal offers (a node able to make an
// optimal-cost or within-slack offer into a useful node is, by the
// triangle inequality, itself useful, with a 2x slack margin absorbing
// the float association noise between the two SSSP runs), so the label
// evolution on surviving nodes — values, tie-breaks, pop order — is
// identical to FromBounded and the returned decompositions stay
// bit-identical. Dijkstra stops settling the whole forward ball of the
// farthest destination and settles only the optimal-path band.
func (ss *SparseSolver) FromBoundedEllipse(s graph.NodeID, dsts []graph.NodeID, bound, rev []float64, inf float64) ([]Decomposition, []bool) {
	n := ss.fv.Order()
	if len(bound) < n {
		return ss.search(s, dsts, nil, nil, 0) // malformed bound: fall back to exact unbounded search
	}
	if len(rev) < n {
		return ss.search(s, dsts, bound, nil, inf) // malformed rev: plain bounded search
	}
	return ss.search(s, dsts, bound, rev, inf)
}

// search is the shared multi-destination Dijkstra over the base-path
// graph. bound == nil runs it unbounded (From); otherwise offers beyond
// bound[v] are pruned (FromBounded), and with rev also set, nodes off
// every optimal path are pruned entirely (FromBoundedEllipse).
func (ss *SparseSolver) search(s graph.NodeID, dsts []graph.NodeID, bound, rev []float64, inf float64) ([]Decomposition, []bool) {
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

	// Pending destinations still to settle; s==d pairs are trivially done,
	// and destinations the bound proves unreachable need no settling.
	pending := 0
	maxBound := 0.0
	for i, d := range dsts {
		if d == s {
			oks[i] = true
			continue
		}
		if !fv.NodeUsable(d) {
			continue
		}
		if bound != nil && bound[d] >= inf {
			continue
		}
		ss.stamp(d)
		if !ss.lab[d].isTarget {
			ss.lab[d].isTarget = true
			pending++
		}
		if bound != nil && bound[d] > maxBound {
			maxBound = bound[d]
		}
	}
	if pending == 0 {
		return decs, oks
	}
	// Every node on an optimal concatenation to a pending destination sits
	// within maxTotal of s; offers beyond it cannot influence any result.
	maxTotal := math.Inf(1)
	bounded := bound != nil
	if bounded {
		maxTotal = maxBound + boundSlack(maxBound)
		// Materialize each node's slack-adjusted bound once, into the label
		// itself: the candidate scans test it per candidate, the fill is one
		// FMA per node versus one per scanned candidate (the same float
		// expression, so every accept/reject decision is unchanged), and
		// co-locating it with the label halves the random loads per
		// surviving candidate.
		if rev != nil {
			// Ellipse prune (see FromBoundedEllipse): a node whose forward
			// plus reverse distance exceeds the farthest pending bound by
			// more than twice the slack cannot sit on any optimal
			// concatenation, nor feed one even a within-slack transient
			// offer; a -Inf bound makes every scan reject it for free.
			cut := maxTotal + boundSlack(maxBound)
			ninf := math.Inf(-1)
			for v, b := range bound[:n] {
				if b+rev[v] > cut {
					ss.lab[v].bnd = ninf
				} else {
					ss.lab[v].bnd = b + boundSlack(b)
				}
			}
		} else {
			for v, b := range bound[:n] {
				ss.lab[v].bnd = b + boundSlack(b)
			}
		}
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
		case ss.lc != nil:
			// Hottest path: the live index's columns hold only surviving
			// candidates, so the scan is pure cost/bound rejection — no
			// liveness test, and the path value is fetched only for offers
			// that actually improve a label.
			lcCosts, lcDsts, lcKeys := ss.lc.LiveFromSource(u)
			if bounded {
				for j, c := range lcCosts {
					total := du + c
					if total > maxTotal {
						break // cheapest-first: every later candidate is dearer
					}
					v := graph.NodeID(lcDsts[j])
					l := &ss.lab[v]
					if total > l.bnd {
						continue
					}
					if tc := cu + 1; offerLab(l, ss.curGen, total, tc) {
						l.dist = total
						l.comps = tc
						l.prev = int32(u)
						ss.prevComp[v] = Component{Kind: KindBasePath, Path: ss.lc.PathAt(lcKeys[j]), Base: lcKeys[j] + 1}
						pq.push(sparseItem{node: v, cost: total, comps: tc})
					}
				}
				break
			}
			for j, c := range lcCosts {
				v := graph.NodeID(lcDsts[j])
				if total, tc := du+c, cu+1; ss.offer(v, total, tc) {
					ss.commit(u, v, total, tc, Component{Kind: KindBasePath, Path: ss.lc.PathAt(lcKeys[j]), Base: lcKeys[j] + 1})
				}
			}
		case ss.src != nil:
			// A materialized base set in insertion order. An empty one has
			// no candidates and a nil mask, which this loop never indexes.
			for _, sp := range ss.src.FromSource(u) {
				if ss.dead[sp.Index] {
					continue
				}
				v := sp.Path.Dst()
				total := du + sp.Cost
				if bounded && (total > maxTotal || total > ss.lab[v].bnd) {
					continue
				}
				if tc := cu + 1; ss.offer(v, total, tc) {
					ss.commit(u, v, total, tc, Component{Kind: KindBasePath, Path: sp.Path, Base: int32(sp.Index) + 1})
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
		// only for accepted offers. With an edge-complete live index
		// installed the whole scan is skipped: every usable arc's offer was
		// already made (and won or lost) by its same-cost 1-hop base path in
		// Candidate 1, so the arc offer can only tie and lose
		// first-offer-wins.
		if ss.lcShadowsArcs {
			continue
		}
		for _, a := range ss.kern.CSR.Arcs(u) {
			if !ss.kern.ArcUsable(a) {
				continue
			}
			total := du + a.W
			if bounded && (total > maxTotal || total > ss.lab[a.To].bnd) {
				continue
			}
			if tc := cu + 1; ss.offer(a.To, total, tc) {
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
		// l.bnd is deliberately preserved: it is per-search fill state
		// outside the generation contract.
	}
}

// offerLab reports whether a label of (total, tc) improves l — the Dijkstra
// acceptance test, shared by every candidate scan so the tie-break stays
// identical across them. A node first touched this search always accepts
// (its label is infinity), without re-reading the marker it just wrote.
//
//rbpc:hotpath
func offerLab(l *sparseLabel, curGen uint32, total float64, tc int32) bool {
	if l.gen != curGen {
		l.gen = curGen
		l.dist = -1
		l.prev = -1
		l.settled = false
		l.isTarget = false
		return true
	}
	return l.dist < 0 || total < l.dist || (total == l.dist && tc < l.comps)
}

// offer is offerLab addressed by node ID, for the scans that have not
// already loaded the label.
//
//rbpc:hotpath
func (ss *SparseSolver) offer(v graph.NodeID, total float64, tc int32) bool {
	return offerLab(&ss.lab[v], ss.curGen, total, tc)
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
