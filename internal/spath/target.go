package spath

import (
	"rbpc/internal/graph"
)

// DistTo returns the shortest-path distance and hop count from s to t in
// v, terminating the search as soon as t is settled. It exists for
// workloads like the paper's Table 3 (the bypass length of every edge),
// where the target is typically a couple of hops away and a full SSSP per
// query would be wasteful. It runs on a pooled Solver, so repeated queries
// allocate nothing and reset in O(nodes touched by the previous query).
//
// The boolean result is false if t is unreachable.
func DistTo(v graph.View, s, t graph.NodeID) (dist float64, hops int, ok bool) {
	if s == t {
		return 0, 0, true
	}
	sv := AcquireSolver(v.Order())
	defer ReleaseSolver(sv)
	if v.UnitWeights() {
		return sv.bfsTo(v, s, t)
	}
	return sv.dijkstraTo(v, s, t)
}

// bfsTo is an early-terminating BFS level search; it labels distances only
// (no parents) and stops as soon as t is discovered.
func (s *Solver) bfsTo(v graph.View, src, tgt graph.NodeID) (float64, int, bool) {
	s.begin(v.Order(), src)
	s.label(src)
	s.dist[src] = 0
	k, _ := compileView(v)
	return s.bfsToKernel(&k, src, tgt)
}

func (s *Solver) bfsToKernel(k *graph.Kernel, src, tgt graph.NodeID) (float64, int, bool) {
	if k.NodeRemoved(src) {
		return Unreachable, 0, false
	}
	eoff, noff := k.EdgeOff, k.NodeOff
	queue := append(s.queue, src)
	defer func() { s.queue = queue[:0] }()
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := s.dist[u]
		for _, a := range k.CSR.Arcs(u) {
			if eoff != nil && eoff[uint32(a.Edge)>>6]&(1<<(uint32(a.Edge)&63)) != 0 {
				continue
			}
			to := a.To
			if noff != nil && noff[uint32(to)>>6]&(1<<(uint32(to)&63)) != 0 {
				continue
			}
			if s.gen[to] == s.cur {
				continue
			}
			s.gen[to] = s.cur
			s.dist[to] = du + 1
			s.touched = append(s.touched, to)
			if to == tgt {
				return du + 1, int(du) + 1, true
			}
			queue = append(queue, to)
		}
	}
	return Unreachable, 0, false
}

// dijkstraTo is an early-terminating Dijkstra: it returns as soon as tgt is
// settled. Among equal-cost paths it reports the minimum hop count, the
// same tie-break the previous implementation used.
func (s *Solver) dijkstraTo(v graph.View, src, tgt graph.NodeID) (float64, int, bool) {
	s.begin(v.Order(), src)
	s.label(src)
	s.dist[src] = 0
	k, eps := compileView(v)
	return s.dijkstraToKernel(&k, eps, src, tgt)
}

func (s *Solver) dijkstraToKernel(k *graph.Kernel, eps float64, src, tgt graph.NodeID) (float64, int, bool) {
	if k.NodeRemoved(src) {
		return Unreachable, 0, false
	}
	eoff, noff := k.EdgeOff, k.NodeOff
	h := s.heap
	h.Push(int(src), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if du > s.dist[u] {
			continue
		}
		if u == tgt {
			return s.dist[u], int(s.hops[u]), true
		}
		hu := s.hops[u]
		for _, a := range k.CSR.Arcs(u) {
			if eoff != nil && eoff[uint32(a.Edge)>>6]&(1<<(uint32(a.Edge)&63)) != 0 {
				continue
			}
			to := a.To
			if noff != nil && noff[uint32(to)>>6]&(1<<(uint32(to)&63)) != 0 {
				continue
			}
			w := a.W
			if eps != 0 {
				w += eps * unitHash(uint64(a.Edge))
			}
			nd := du + w
			if s.gen[to] != s.cur {
				s.label(to)
			}
			switch {
			case nd < s.dist[to]:
				s.dist[to] = nd
				s.hops[to] = hu + 1
				h.PushOrDecrease(int(to), nd)
			case nd == s.dist[to] && hu+1 < s.hops[to]:
				s.hops[to] = hu + 1
			}
		}
	}
	return Unreachable, 0, false
}
