package spath

import (
	"rbpc/internal/graph"
)

// PaddedView perturbs every edge weight of an underlying view by a tiny,
// deterministic, pseudo-random amount. This realizes the paper's
// "infinitesimal padding" (Theorem 3): with distinct perturbations, shortest
// paths become unique (with overwhelming probability), so "the" shortest
// path per pair is well defined and one path per pair suffices as a base
// set.
//
// The perturbation of edge e is eps * u(e) where u(e) in (0,1) is a
// splitmix64 hash of the edge ID, so views over the same graph always agree.
// Choose eps small enough that the total perturbation along any path (at
// most n*eps) cannot reorder genuinely different path costs; PaddingFor
// computes a safe value for integral-weight graphs.
type PaddedView struct {
	under graph.View
	eps   float64
}

// Padded wraps v with perturbed weights.
func Padded(v graph.View, eps float64) *PaddedView {
	return &PaddedView{under: v, eps: eps}
}

// PaddingFor returns a safe padding magnitude for a graph with integral
// weights: distinct unpadded path costs differ by at least 1, and any path
// accumulates less than n*eps of padding, so any eps < 1/(2n) preserves the
// cost order. We use 1/(4n).
func PaddingFor(g *graph.Graph) float64 {
	n := g.Order()
	if n == 0 {
		return 0
	}
	return 1 / (4 * float64(n))
}

// Order implements graph.View.
func (p *PaddedView) Order() int { return p.under.Order() }

// Size implements graph.View.
func (p *PaddedView) Size() int { return p.under.Size() }

// Directed implements graph.View.
func (p *PaddedView) Directed() bool { return p.under.Directed() }

// UnitWeights implements graph.View; padded weights are never unit, which
// forces Dijkstra (BFS would ignore the perturbations).
func (p *PaddedView) UnitWeights() bool { return false }

// Edge implements graph.View, returning the edge with its perturbed weight.
func (p *PaddedView) Edge(id graph.EdgeID) graph.Edge {
	e := p.under.Edge(id)
	e.W += p.eps * unitHash(uint64(id))
	return e
}

// VisitArcs implements graph.View.
func (p *PaddedView) VisitArcs(u graph.NodeID, visit func(graph.Arc) bool) {
	p.under.VisitArcs(u, visit)
}

var _ graph.View = (*PaddedView)(nil)

// unitHash maps x to a deterministic value in (0, 1) via splitmix64.
//
//rbpc:hotpath
func unitHash(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// 53 significant bits into (0,1); add 1 ulp to avoid exactly 0.
	return (float64(x>>11) + 0.5) / (1 << 53)
}
