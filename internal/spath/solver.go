package spath

import (
	"fmt"
	"sync"

	"rbpc/internal/graph"
	"rbpc/internal/pqueue"
)

// Solver is a reusable single-source shortest-path engine. It owns the
// dist/hops/parent scratch a run needs, so repeated runs — the shape of
// every experiment in this repository: thousands of SSSPs over overlays of
// one base graph — allocate nothing and reset in O(touched nodes), not
// O(n):
//
//   - Labels are generation-stamped: bumping the generation counter
//     invalidates every label of the previous run in O(1), and a lazily
//     (re)initialized "touched" list records exactly the nodes the current
//     run labeled.
//   - Every view is lowered to the graph's compiled CSR kernel
//     (*graph.Graph, *graph.FailureView, and PaddedView over either — the
//     views this repository defines), replacing the per-arc visitor closure
//     and the Edge(id).W indirection with a flat slice walk. A view of any
//     other type is refused by panic (compileView), not searched slowly.
//
// Results are read from the Solver itself (Dist, Hops, Parent, PathTo) and
// remain valid until the next Solve; Tree materializes a standalone
// snapshot. The deterministic lexicographic tie-breaking is bit-for-bit
// identical to Compute's documented behavior.
//
// A Solver is not safe for concurrent use; use one per goroutine
// (AcquireSolver/ReleaseSolver pool them).
type Solver struct {
	n   int // order of the view of the current run
	src graph.NodeID

	dist    []float64
	hops    []int32
	parent  []graph.NodeID
	parentE []graph.EdgeID

	gen     []uint32       // gen[v] == cur: v is labeled in the current run
	cur     uint32         // current generation
	touched []graph.NodeID // nodes labeled in the current run

	queue []graph.NodeID // BFS frontier
	heap  *pqueue.IndexedMinHeap
}

// NewSolver returns a Solver with scratch sized for views of order n. The
// scratch grows automatically if a later Solve sees a larger view.
func NewSolver(n int) *Solver {
	s := &Solver{}
	s.grow(n)
	return s
}

// grow (re)allocates every scratch array for order n. Fresh arrays are
// zeroed, so resetting cur restarts generation stamping cleanly.
func (s *Solver) grow(n int) {
	s.dist = make([]float64, n)
	s.hops = make([]int32, n)
	s.parent = make([]graph.NodeID, n)
	s.parentE = make([]graph.EdgeID, n)
	s.gen = make([]uint32, n)
	s.cur = 0
	s.heap = pqueue.New(n)
	if cap(s.queue) < n {
		s.queue = make([]graph.NodeID, 0, n)
	}
}

// begin starts a new run: adapts the scratch to order n, invalidates every
// label of the previous run in O(1), and records the source.
func (s *Solver) begin(n int, src graph.NodeID) {
	if n > len(s.dist) {
		s.grow(n)
	}
	s.n = n
	s.src = src
	s.cur++
	if s.cur == 0 { // generation counter wrapped: hard-reset the stamps
		clear(s.gen)
		s.cur = 1
	}
	s.touched = s.touched[:0]
	s.queue = s.queue[:0]
	if s.heap.Len() > 0 { // an early-exit query left entries behind
		s.heap.Reset()
	}
}

// label makes v a labeled node of the current run with the "unreached"
// defaults, returning false if it already was labeled.
func (s *Solver) label(v graph.NodeID) bool {
	if s.gen[v] == s.cur {
		return false
	}
	s.gen[v] = s.cur
	s.dist[v] = Unreachable
	s.hops[v] = 0
	s.parent[v] = -1
	s.parentE[v] = -1
	s.touched = append(s.touched, v)
	return true
}

// Source returns the source of the last Solve.
func (s *Solver) Source() graph.NodeID { return s.src }

// Order returns the order of the view of the last Solve.
func (s *Solver) Order() int { return s.n }

// Dist returns the distance from the source to v, or Unreachable.
//
//rbpc:hotpath
func (s *Solver) Dist(v graph.NodeID) float64 {
	if s.gen[v] != s.cur {
		return Unreachable
	}
	return s.dist[v]
}

// Hops returns the hop count of the tree path to v; meaningful only if
// Reached(v).
func (s *Solver) Hops(v graph.NodeID) int {
	if s.gen[v] != s.cur {
		return 0
	}
	return int(s.hops[v])
}

// Reached reports whether v was reached by the last Solve.
//
//rbpc:hotpath
func (s *Solver) Reached(v graph.NodeID) bool {
	return s.gen[v] == s.cur && s.dist[v] != Unreachable
}

// Parent returns the tree predecessor of v and the connecting edge, or
// (-1, -1) at the source or an unreached node.
func (s *Solver) Parent(v graph.NodeID) (graph.NodeID, graph.EdgeID) {
	if s.gen[v] != s.cur {
		return -1, -1
	}
	return s.parent[v], s.parentE[v]
}

// PathTo reconstructs the tree path from the source to v. The second
// result is false if v is unreachable. The returned path is freshly
// allocated and stays valid after the next Solve.
func (s *Solver) PathTo(v graph.NodeID) (graph.Path, bool) {
	if !s.Reached(v) {
		return graph.Path{}, false
	}
	n := int(s.hops[v])
	p := graph.Path{
		Nodes: make([]graph.NodeID, n+1),
		Edges: make([]graph.EdgeID, n),
	}
	at := v
	for i := n; i > 0; i-- {
		p.Nodes[i] = at
		p.Edges[i-1] = s.parentE[at]
		at = s.parent[at]
	}
	p.Nodes[0] = at
	return p, true
}

// Row lays the last Solve's distances out as a tree's row, in place: over
// the view's order, with Unreachable at every node the run did not label,
// bit-identical to Tree().Dists() without materializing a tree. The row
// aliases the solver's scratch: it is valid until the next run, and must
// not be modified.
//
//rbpc:hotpath
func (s *Solver) Row() []float64 {
	dist := s.dist[:s.n]
	for v, g := range s.gen[:s.n] {
		if g != s.cur {
			dist[v] = Unreachable
		}
	}
	return dist
}

// Tree materializes the last Solve's result as a standalone shortest-path
// tree, detached from the solver's scratch.
//
//rbpc:ctor
func (s *Solver) Tree() *Tree {
	t := newTree(s.n, s.src)
	for _, v := range s.touched {
		t.dist[v] = s.dist[v]
		t.hops[v] = s.hops[v]
		t.parent[v] = s.parent[v]
		t.parentE[v] = s.parentE[v]
	}
	return t
}

// compileView lowers a view to the flat CSR kernel plus the padding
// magnitude to apply per edge (0 for unpadded views). Every search in this
// package runs on the kernel, so a view it cannot represent — a type other
// than the graph package's two and PaddedView over them — is a programming
// error, reported by a panic naming the type.
func compileView(v graph.View) (graph.Kernel, float64) {
	under, eps := v, 0.0
	if p, ok := v.(*PaddedView); ok {
		under, eps = p.under, p.eps
	}
	k, ok := graph.CompileView(under)
	if !ok {
		panic(fmt.Sprintf("spath: no CSR kernel for a view of type %T", under))
	}
	return k, eps
}

// Solve runs SSSP on v from src: BFS when all usable weights are 1,
// Dijkstra otherwise — the same dispatch as Compute.
func (s *Solver) Solve(v graph.View, src graph.NodeID) {
	if v.UnitWeights() {
		s.solveBFS(v, src)
		return
	}
	s.solveDijkstra(v, src)
}

func (s *Solver) solveBFS(v graph.View, src graph.NodeID) {
	s.begin(v.Order(), src)
	s.label(src)
	s.dist[src] = 0
	k, _ := compileView(v)
	s.bfsKernel(&k, src)
}

func (s *Solver) solveDijkstra(v graph.View, src graph.NodeID) {
	s.begin(v.Order(), src)
	s.label(src)
	s.dist[src] = 0
	k, eps := compileView(v)
	s.dijkstraKernel(&k, eps, src)
}

// bfsKernel is the flat-adjacency BFS. Scratch fields are hoisted into
// locals so the inner loop indexes slices directly instead of re-loading
// them through the receiver per relaxation.
//
//rbpc:hotpath
func (s *Solver) bfsKernel(k *graph.Kernel, src graph.NodeID) {
	if k.NodeRemoved(src) {
		return // removed source: only itself, at distance 0
	}
	eoff, noff := k.EdgeOff, k.NodeOff
	masked := eoff != nil || noff != nil
	dist, hops, parent, parentE := s.dist, s.hops, s.parent, s.parentE
	gen, cur, touched := s.gen, s.cur, s.touched
	queue := append(s.queue, src) // scratch presized to the view's order by grow
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		hu := hops[u]
		for _, a := range k.CSR.Arcs(u) {
			to := a.To
			if masked {
				if eoff != nil && eoff[uint32(a.Edge)>>6]&(1<<(uint32(a.Edge)&63)) != 0 {
					continue
				}
				if noff != nil && noff[uint32(to)>>6]&(1<<(uint32(to)&63)) != 0 {
					continue
				}
			}
			switch {
			case gen[to] != cur: // undiscovered
				gen[to] = cur
				dist[to] = du + 1
				hops[to] = hu + 1
				parent[to] = u
				parentE[to] = a.Edge
				touched = append(touched, to) // amortized: reaches high-water capacity and is reused
				queue = append(queue, to)     // scratch presized to the view's order by grow
			case dist[to] == du+1:
				// Same level: keep the lexicographically least parent so
				// trees are deterministic.
				if betterParent(hu+1, u, a.Edge, hops[to], parent[to], parentE[to]) {
					parent[to] = u
					parentE[to] = a.Edge
				}
			}
		}
	}
	s.touched = touched
	s.queue = queue[:0]
}

// dijkstraKernel is the flat-adjacency Dijkstra with inlined weights and
// optional padding. eps != 0 applies the PaddedView perturbation using the
// same expression as PaddedView.Edge, so padded runs are bit-identical.
//
//rbpc:hotpath
func (s *Solver) dijkstraKernel(k *graph.Kernel, eps float64, src graph.NodeID) {
	if k.NodeRemoved(src) {
		return
	}
	eoff, noff := k.EdgeOff, k.NodeOff
	masked := eoff != nil || noff != nil
	dist, hops, parent, parentE := s.dist, s.hops, s.parent, s.parentE
	gen, cur, touched := s.gen, s.cur, s.touched
	h := s.heap
	h.Push(int(src), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if du > dist[u] {
			continue // stale entry (we push fresh entries instead of decrease-key on revisit)
		}
		hu := hops[u]
		for _, a := range k.CSR.Arcs(u) {
			to := a.To
			if masked {
				if eoff != nil && eoff[uint32(a.Edge)>>6]&(1<<(uint32(a.Edge)&63)) != 0 {
					continue
				}
				if noff != nil && noff[uint32(to)>>6]&(1<<(uint32(to)&63)) != 0 {
					continue
				}
			}
			w := a.W
			if eps != 0 {
				w += eps * unitHash(uint64(a.Edge))
			}
			nd := du + w
			if gen[to] != cur {
				gen[to] = cur
				dist[to] = Unreachable
				hops[to] = 0
				parent[to] = -1
				parentE[to] = -1
				touched = append(touched, to) // amortized: reaches high-water capacity and is reused
			}
			switch {
			case nd < dist[to]:
				dist[to] = nd
				hops[to] = hu + 1
				parent[to] = u
				parentE[to] = a.Edge
				h.PushOrDecrease(int(to), nd)
			case nd == dist[to]:
				if betterParent(hu+1, u, a.Edge, hops[to], parent[to], parentE[to]) {
					hops[to] = hu + 1
					parent[to] = u
					parentE[to] = a.Edge
				}
			}
		}
	}
	s.touched = touched
}

// solverPool recycles Solvers across Compute/DistTo calls, so the
// steady-state hot path of the evaluation allocates only the result values
// it returns.
var solverPool = sync.Pool{New: func() any { return NewSolver(0) }}

// AcquireSolver returns a pooled Solver ready for views of order n. Pass it
// to ReleaseSolver when done; results read from it are invalid afterwards.
func AcquireSolver(n int) *Solver {
	s := solverPool.Get().(*Solver)
	if n > len(s.dist) {
		s.grow(n)
	}
	return s
}

// ReleaseSolver returns s to the pool.
func ReleaseSolver(s *Solver) { solverPool.Put(s) }
