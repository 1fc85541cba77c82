package core

import (
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// boundSlack is the comparison slack the pull allows when testing an arc
// for tightness against a distance row: the row comes from a CSR SSSP whose
// additions may associate differently than the base-path-graph sums, so a
// strict comparison could misjudge an exact tie by a few ulps. The slack is
// relative (≈1e-9·bound) — far above accumulated rounding, far below any
// genuine cost difference on the weight scales in use.
//
//rbpc:hotpath
func boundSlack(b float64) float64 { return 1e-9 * (b + 1) }

// Pull solves SparseSolver.From's problem for a caller that already holds
// the source's true post-failure distance row — the online engine, whose
// epoch oracle derives it — by reading each restoration off the arcs into
// its destination instead of searching for it.
//
// Over an edge-complete base set the base-path graph's distances are the
// view's, so every arc (u, v) of a minimum-cost concatenation is tight:
// D[u] + cost == D[v]. The Dijkstra's label on v is then a function of v's
// tight live in-arcs alone. Its component count is 1 when a tight live arc
// leaves s itself, else 1 + the least count among v's tight predecessors;
// its predecessor is, among those attaining the least, the first the
// Dijkstra pops — the least (D[u], u), all sharing one count — and the arc
// from it the first in base-set index order, because an equal offer never
// displaces a label. So: one pass over the arcs out of s (the pop of s)
// labels every one-component node; one pass over the arcs into a target
// finds its least one-component tight predecessor, which settles all but a
// few pairs in ten thousand; only when there is none does the pull recurse,
// memoized, on the tight predecessors — strictly nearer s, so it ends. No
// heap, no per-search fill, no destination trees. The decompositions are
// bit-identical to From's on every view whose path sums are exact (integer
// weights; rbpc.Provision.Servable is the door); on others the cost still
// agrees within the slack and the pull never returns more components.
//
// A Pull is scratch for one build worker: labels stamped by generation, so
// starting a solve is one increment, and the components of a solve's
// decompositions carved from one buffer the Pull reuses. Not safe for
// concurrent use.
type Pull struct {
	arcs  *paths.ArcIndex
	paths []graph.Path
	lab   []pullLabel
	gen   uint32
	comps []Component // the last solve's decompositions' components
}

// pullLabel is a node's label in the current solve, valid where gen matches
// the Pull's: the components of the chain from the source (-1: no chain of
// tight live arcs reaches the node), the chain's node before this one, and
// the base-set index of the arc between them.
type pullLabel struct {
	gen   uint32
	comps int32
	prev  int32
	idx   int32
}

// NewPull returns solve scratch over ex, which must be populated.
func NewPull(ex *paths.Explicit) *Pull {
	return &Pull{arcs: ex.ArcIndex(), paths: ex.All(), lab: make([]pullLabel, ex.View().Order())}
}

// From decomposes s -> dsts[i] into decs[i], oks[i] (both len(dsts); every
// entry is overwritten), as SparseSolver.From would under the failure view
// that dist and dead describe: dist is the view's shortest-distance row
// from s (spath.Unreachable where there is no path), dead[i] != 0 iff base
// path i crosses a failed link (paths.LiveIndex.Dead). The view removes
// links only. The decompositions share one backing array, which the Pull
// owns and reuses: they are valid until p's next From, so a caller reads
// them — resolves them into routes, concatenates their paths — before it
// pulls again. Once the buffer has grown to a solve's size, From allocates
// nothing.
func (p *Pull) From(s graph.NodeID, dist []float64, dead []int32, dsts []graph.NodeID, decs []Decomposition, oks []bool) {
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could collide, start over
		clear(p.lab)
		p.gen = 1
	}
	p.popSource(s, dist, dead)
	total := 0
	for i, d := range dsts {
		decs[i] = Decomposition{}
		oks[i] = dist[d] < spath.Unreachable && p.label(d, dist, dead) >= 0
		if oks[i] {
			total += int(p.lab[d].comps)
		}
	}
	if total == 0 {
		return
	}
	if cap(p.comps) < total {
		p.comps = make([]Component, total)
	}
	comps := p.comps[:total]
	for i, d := range dsts {
		if !oks[i] || d == s {
			continue
		}
		k := int(p.lab[d].comps)
		decs[i].Components, comps = comps[:k:k], comps[k:]
		for at := d; k > 0; k-- {
			l := &p.lab[at]
			decs[i].Components[k-1] = Component{Kind: KindBasePath, Path: p.paths[l.idx], Base: l.idx + 1}
			at = graph.NodeID(l.prev)
		}
	}
}

// popSource is the Dijkstra's first pop: s at zero components, and every
// head of a tight live arc out of s at one — by the lowest-indexed such arc,
// the first offer.
//
//rbpc:hotpath
func (p *Pull) popSource(s graph.NodeID, dist []float64, dead []int32) {
	p.lab[s] = pullLabel{gen: p.gen, prev: -1}
	for _, a := range p.arcs.Out(s) {
		dv := dist[a.Peer]
		if a.Cost > dv+boundSlack(dv) || dead[a.Idx] != 0 {
			continue
		}
		if l := &p.lab[a.Peer]; l.gen != p.gen {
			*l = pullLabel{gen: p.gen, comps: 1, prev: int32(s), idx: a.Idx}
		}
	}
}

// tightTail reports whether arc a into a node at distance dv (lim: dv plus
// its slack) can end a minimum-cost chain: live, tight against the row, and
// from strictly nearer the source — what a positive cost makes of tight,
// asked outright so the recursion ends on any input. It returns the tail's
// distance with the verdict.
//
//rbpc:hotpath
func tightTail(a paths.Arc, dist []float64, dv, lim float64, dead []int32) (float64, bool) {
	du := dist[a.Peer]
	return du, du+a.Cost <= lim && du < dv && dead[a.Idx] == 0
}

// label returns v's component count, labelling v if this solve has not yet.
// dist[v] must be reachable.
//
//rbpc:hotpath
func (p *Pull) label(v graph.NodeID, dist []float64, dead []int32) int32 {
	if l := &p.lab[v]; l.gen == p.gen {
		return l.comps
	}
	in := p.arcs.In(v)
	dv := dist[v]
	lim := dv + boundSlack(dv)
	// best is the winning arc so far and bestK its tail's component count.
	// The first pass admits one-component tails only, all of which the pop
	// of s labelled; the second, run when the first finds none, asks every
	// tight tail for its count.
	best, bestK, bestD := paths.Arc{Peer: -1}, int32(1), 0.0
	for _, a := range in {
		du, ok := tightTail(a, dist, dv, lim, dead)
		if !ok {
			continue
		}
		if lu := &p.lab[a.Peer]; lu.gen != p.gen || lu.comps != 1 {
			continue
		}
		if best.Peer < 0 || du < bestD || du == bestD && a.Peer < best.Peer {
			best, bestD = a, du
		}
	}
	if best.Peer < 0 {
		for _, a := range in {
			du, ok := tightTail(a, dist, dv, lim, dead)
			if !ok {
				continue
			}
			k := p.label(graph.NodeID(a.Peer), dist, dead)
			if k < 0 {
				continue
			}
			if best.Peer < 0 || k < bestK || k == bestK && (du < bestD || du == bestD && a.Peer < best.Peer) {
				best, bestK, bestD = a, k, du
			}
		}
	}
	l := &p.lab[v]
	if best.Peer < 0 {
		*l = pullLabel{gen: p.gen, comps: -1}
		return -1
	}
	*l = pullLabel{gen: p.gen, comps: bestK + 1, prev: best.Peer, idx: best.Idx}
	return l.comps
}
