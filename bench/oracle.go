package main

import (
	"fmt"
	"math"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
)

// oracle is the benchmark's independent reference: its own adjacency
// lists built from the edge list and its own Dijkstra, sharing no code
// with spath or graph.FailureView. On the unit-weight AS topology every
// distance is a small integer, so served costs must match bit for bit.
type oracle struct {
	g    *graph.Graph
	adj  [][]graph.Arc
	unit bool

	dist []float64
	heap []heapItem
	down []bool
	// Distances already computed for the failed-set being checked: answers
	// arrive grouped by epoch, and the bulk phase has only one.
	memoFailed []graph.EdgeID
	memo       map[graph.NodeID][]float64
	// wrongAnswer, when set by a test, corrupts the reference so that a
	// correct answer is rejected: the proof that the oracles are armed.
	wrongAnswer bool
}

type heapItem struct {
	d float64
	v graph.NodeID
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{g: g, adj: make([][]graph.Arc, g.Order()), unit: g.UnitWeights(),
		dist: make([]float64, g.Order()), down: make([]bool, g.Size())}
	for _, e := range g.Edges() {
		o.adj[e.U] = append(o.adj[e.U], graph.Arc{Edge: e.ID, To: e.V})
		o.adj[e.V] = append(o.adj[e.V], graph.Arc{Edge: e.ID, To: e.U})
	}
	return o
}

func (o *oracle) push(it heapItem) {
	o.heap = append(o.heap, it)
	i := len(o.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if o.heap[p].d <= o.heap[i].d {
			break
		}
		o.heap[p], o.heap[i] = o.heap[i], o.heap[p]
		i = p
	}
}

func (o *oracle) pop() heapItem {
	top := o.heap[0]
	last := len(o.heap) - 1
	o.heap[0] = o.heap[last]
	o.heap = o.heap[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && o.heap[l].d < o.heap[m].d {
			m = l
		}
		if r < last && o.heap[r].d < o.heap[m].d {
			m = r
		}
		if m == i {
			break
		}
		o.heap[i], o.heap[m] = o.heap[m], o.heap[i]
		i = m
	}
	return top
}

// sssp returns shortest distances from src with the failed links removed.
// The returned slice is the oracle's scratch: valid until the next call.
func (o *oracle) sssp(failed []graph.EdgeID, src graph.NodeID) []float64 {
	for _, e := range failed {
		o.down[e] = true
	}
	for i := range o.dist {
		o.dist[i] = math.Inf(1)
	}
	o.dist[src] = 0
	o.heap = append(o.heap[:0], heapItem{0, src})
	for len(o.heap) > 0 {
		it := o.pop()
		if it.d > o.dist[it.v] {
			continue
		}
		for _, a := range o.adj[it.v] {
			if o.down[a.Edge] {
				continue
			}
			if nd := it.d + o.g.Edge(a.Edge).W; nd < o.dist[a.To] {
				o.dist[a.To] = nd
				o.push(heapItem{nd, a.To})
			}
		}
	}
	for _, e := range failed {
		o.down[e] = false
	}
	return o.dist
}

// connected reports whether the graph minus the failed links is one
// component.
func (o *oracle) connected(failed []graph.EdgeID) bool {
	for _, d := range o.sssp(failed, 0) {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

// answer is one served result kept for checking after the phase ends, so
// the reference Dijkstra never runs on the timed path. It keeps what the
// check needs of the answering epoch, not the snapshot itself: holding
// every epoch of a phase alive would show up as the system's memory.
type answer struct {
	src, dst graph.NodeID
	route    *engine.Route
	failed   []graph.EdgeID // the epoch's failed-set (immutable, shared)
	epoch    uint64
	hybrid   bool
	// converged is false for a hybrid epoch that, when it answered, still
	// had sources the flood had not reached.
	converged bool
}

func newAnswer(r engine.Result) answer {
	return answer{src: r.Src, dst: r.Dst, route: r.Route, failed: r.Snap.Failed(), epoch: r.Snap.Epoch(),
		hybrid: r.Snap.Scheme() == engine.SchemeHybrid, converged: r.Snap.Converged()}
}

func sameFailed(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check validates one answer against the epoch it was served from and
// returns a description of the first violation, or "". failedOp reports
// an operation the user would count as failed (an unroutable answer for
// a connected pair) even where the scheme permits it.
func (o *oracle) check(a answer) (violation string, failedOp bool) {
	failed := a.failed
	k := len(failed)
	if o.memo == nil || !sameFailed(o.memoFailed, failed) {
		o.memoFailed, o.memo = failed, map[graph.NodeID][]float64{}
	}
	dist, ok := o.memo[a.src]
	if !ok {
		dist = append([]float64(nil), o.sssp(failed, a.src)...)
		o.memo[a.src] = dist
	}
	want := dist[a.dst]
	if o.wrongAnswer {
		want++
	}
	bad := func(format string, args ...any) (string, bool) {
		return fmt.Sprintf("%d->%d epoch %d failed %v: ", a.src, a.dst, a.epoch, failed) + fmt.Sprintf(format, args...), true
	}
	rt := a.route
	if rt == nil {
		if a.src == a.dst || math.IsInf(want, 1) {
			return "", false
		}
		if a.hybrid {
			return "", true // bypass-blocked: honest under the scheme, still a failed operation
		}
		return bad("unroutable though connected (distance %v)", want)
	}
	downSet := make(map[graph.EdgeID]bool, k)
	for _, e := range failed {
		downSet[e] = true
	}
	if rt.Via != engine.SchemeSource {
		// Local answer: the concrete walk the patched data plane delivers.
		p := rt.Path
		if len(p.Nodes) == 0 || p.Src() != a.src || p.Dst() != a.dst {
			return bad("local path does not join the pair")
		}
		var cost float64
		for _, e := range p.Edges {
			if downSet[e] {
				return bad("local path rides failed link %d", e)
			}
			cost += o.g.Edge(e).W
		}
		if !o.same(cost, rt.Cost) || rt.Cost < want {
			return bad("local cost %v, walk %v, shortest %v", rt.Cost, cost, want)
		}
		return "", false
	}
	at, multi := a.src, 0
	for i, l := range rt.LSPs {
		if l.Path.Src() != at {
			return bad("component %d starts at %d, want %d", i, l.Path.Src(), at)
		}
		at = l.Path.Dst()
		if l.Path.Hops() > 1 {
			multi++
		}
	}
	if at != a.dst {
		return bad("concatenation ends at %d", at)
	}
	if a.hybrid && !a.converged {
		// Until the flood has reached every source, a hybrid epoch may
		// serve the previous epoch's source rows: stale by design, so only
		// the chain is checked.
		return "", false
	}
	for i, l := range rt.LSPs {
		for _, e := range l.Path.Edges {
			if downSet[e] {
				return bad("component %d rides failed link %d", i, e)
			}
		}
	}
	if multi > k+1 || len(rt.LSPs) > 2*k+1 {
		return bad("%d components (%d multi-hop) for k=%d: bound is k+1 base paths and k edges", len(rt.LSPs), multi, k)
	}
	if !o.same(rt.Cost, want) {
		return bad("served cost %v (bits %x), independent Dijkstra %v (bits %x)", rt.Cost, math.Float64bits(rt.Cost), want, math.Float64bits(want))
	}
	return "", false
}

// same compares two costs: bit for bit on unit weights, to 1e-9 relative
// otherwise (float sums taken in different orders may differ in the last
// place).
func (o *oracle) same(a, b float64) bool {
	if o.unit {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-9*(math.Abs(b)+1)
}
