package paths

import (
	"runtime"
	"sync/atomic"

	"rbpc/internal/graph"
	"rbpc/internal/par"
	"rbpc/internal/spath"
)

// pairKey identifies an ordered source-destination pair.
type pairKey struct{ s, d graph.NodeID }

// Explicit is a materialized base set: the stored paths with their
// base-view costs, and one index per question asked of them — the pair
// heads and next for the paths of a pair, byEdge for the paths over a
// link, and the memoized ArcIndex for the paths out of and into a node.
//
// Once populated (FromSources and Add are the build phase), an Explicit is
// read-only: every consumer — decomposers, planners, evaluation fan-outs,
// the LSPs established over the stored paths — shares it concurrently
// without locking.
//
//rbpc:immutable
type Explicit struct {
	view graph.View

	paths []graph.Path
	costs []float64 // costs[i] is paths[i]'s cost in view
	// next[i] is the position of the path its pair gained after paths[i],
	// -1 at the end: each pair's chain, in the order the set stored it.
	// A chain's head is in rows when its source has one, else in byPair.
	next []int32
	// rows[s] is the dense head row of a source FromSources walked:
	// rows[s][d] is the position of the first path from s to d, -1 if
	// none. A source it did not walk has no row (nil), so a set built
	// through Add alone, or a hot set's unserved sources with their 1-hop
	// paths, keep their heads in the sparse byPair.
	rows   [][]int32
	byPair map[pairKey]int32
	// byEdge[e] lists the positions of the paths over link e, by EdgeID.
	byEdge [][]int
	// nodeSlab and edgeSlab are the free tails of the arrays stored paths
	// are carved from: a stored path is a window of one of them, capped at
	// its own length, so a path costs no allocation of its own.
	nodeSlab []graph.NodeID
	edgeSlab []graph.EdgeID

	// ai memoizes ArcIndex (a pure function of the populated set).
	ai atomic.Pointer[ArcIndex]
}

// NewExplicit returns an empty explicit base set over v.
func NewExplicit(v graph.View) *Explicit {
	return &Explicit{view: v, byPair: make(map[pairKey]int32)}
}

// row returns s's dense head row, nil if FromSources did not walk s.
func (b *Explicit) row(s graph.NodeID) []int32 {
	if int(s) < len(b.rows) {
		return b.rows[s]
	}
	return nil
}

// head returns the position of the first stored path from s to d, -1 if
// the set holds none.
func (b *Explicit) head(s, d graph.NodeID) int32 {
	if row := b.row(s); row != nil {
		return row[d]
	}
	if h, ok := b.byPair[pairKey{s, d}]; ok {
		return h
	}
	return -1
}

// Add inserts p into the set (deduplicating identical paths) and returns
// whether the set grew. The set stores a copy: the caller may reuse p.
// Trivial paths are rejected: an LSP needs at least one hop.
//
//rbpc:ctor
func (b *Explicit) Add(p graph.Path) bool {
	if p.IsTrivial() {
		return false
	}
	s, d := p.Src(), p.Dst()
	tail := int32(-1)
	for i := b.head(s, d); i >= 0; i = b.next[i] {
		if b.paths[i].Equal(p) {
			return false
		}
		tail = i
	}
	if b.ai.Load() != nil {
		b.ai.Store(nil)
	}
	idx := b.push(b.store(p))
	switch row := b.row(s); {
	case tail >= 0:
		b.next[tail] = idx
	case row != nil:
		row[d] = idx
	default:
		b.byPair[pairKey{s, d}] = idx
	}
	return true
}

// push appends p, already carved into the set's slabs, at the end of the
// set and of byEdge's lists, and returns its position; the caller links it
// into its pair's chain. Its cost is summed in the set's own view.
//
//rbpc:ctor
func (b *Explicit) push(p graph.Path) int32 {
	idx := int32(len(b.paths))
	b.paths = append(b.paths, p)
	b.costs = append(b.costs, p.CostIn(b.view))
	b.next = append(b.next, -1)
	for _, e := range p.Edges {
		if int(e) >= len(b.byEdge) {
			b.byEdge = append(b.byEdge, make([][]int, int(e)+1-len(b.byEdge))...)
		}
		b.byEdge[e] = append(b.byEdge[e], int(idx))
	}
	return idx
}

// slabMin and slabMax bound the arrays grab allocates: each is twice the
// last, from slabMin up to slabMax entries (or one path's length, if that
// is more), so a small set stays small and a large one allocates a few
// dozen times.
const (
	slabMin = 64
	slabMax = 1 << 16
)

// store copies p into the set's slabs and returns the copy.
//
//rbpc:ctor
func (b *Explicit) store(p graph.Path) graph.Path {
	nodes, edges := grab(&b.nodeSlab, len(p.Nodes)), grab(&b.edgeSlab, len(p.Edges))
	copy(nodes, p.Nodes)
	copy(edges, p.Edges)
	return graph.Path{Nodes: nodes, Edges: edges}
}

// grab returns the next k entries of the free tail *slab, starting a new
// array when the tail is too short, as a window capped at its length so an
// append to it cannot reach the next window.
func grab[T any](slab *[]T, k int) []T {
	if cap(*slab)-len(*slab) < k {
		size := min(max(2*cap(*slab), slabMin), slabMax)
		*slab = make([]T, 0, max(size, k))
	}
	at := len(*slab)
	*slab = (*slab)[:at+k]
	return (*slab)[at : at+k : at+k]
}

// ArcIndex returns the set's by-source and by-destination arc lists, built
// on first use and shared from then on (it is immutable): every engine over
// this base set — the shards of one process — solves off the same one. Call
// it once the set is populated; Add drops the memo.
func (b *Explicit) ArcIndex() *ArcIndex {
	ai := b.ai.Load()
	if ai == nil {
		// Concurrent first callers each build one and the last store wins;
		// the indexes are identical.
		ai = newArcIndex(b)
		b.ai.Store(ai)
	}
	return ai
}

// CostAt returns the base-view cost of the stored path at position idx, as
// Add computed it (Path.CostIn over the set's view).
//
//rbpc:hotpath
func (b *Explicit) CostAt(idx int32) float64 { return b.costs[idx] }

// DeadUnderInto returns a Len()-sized mask marking every stored path broken
// by fv's removed edges and nodes: dead[i] == !Survives(paths[i], fv). It
// costs O(paths through the removed elements), not O(total paths), so a
// consumer doing many survival checks against one failure view (the sparse
// decomposer) trades a per-check edge scan for one bit load. If dead has
// capacity for Len() entries it is cleared and reused, otherwise a fresh
// mask is allocated.
func (b *Explicit) DeadUnderInto(fv *graph.FailureView, dead []bool) []bool {
	if cap(dead) >= len(b.paths) {
		dead = dead[:len(b.paths)]
		clear(dead)
	} else {
		dead = make([]bool, len(b.paths))
	}
	for _, e := range fv.RemovedEdges() {
		for _, idx := range b.IndicesThroughEdge(e) {
			dead[idx] = true
		}
	}
	// A stored path visiting a removed node is dead. It has a hop, so it
	// leaves the node over one of its arcs or, when the node is its
	// destination, enters it — over one of those arcs too in an undirected
	// view, where every link is an arc both ways; in a directed one the
	// paths into the node are its ArcIndex column.
	for _, nd := range fv.RemovedNodes() {
		b.view.VisitArcs(nd, func(a graph.Arc) bool {
			for _, idx := range b.IndicesThroughEdge(a.Edge) {
				dead[idx] = true
			}
			return true
		})
		if b.view.Directed() {
			for _, a := range b.ArcIndex().In(nd) {
				dead[a.Idx] = true
			}
		}
	}
	return dead
}

// Len returns the number of stored paths.
func (b *Explicit) Len() int { return len(b.paths) }

// All returns the stored paths. Callers must not modify the slice.
func (b *Explicit) All() []graph.Path { return b.paths }

// Contains implements Base. p is assumed valid in View(), so it is stored
// exactly when its pair's chain holds an Equal path.
func (b *Explicit) Contains(p graph.Path) bool {
	if p.IsTrivial() {
		return false
	}
	for i := b.head(p.Src(), p.Dst()); i >= 0; i = b.next[i] {
		if b.paths[i].Equal(p) {
			return true
		}
	}
	return false
}

// Between implements Base.
func (b *Explicit) Between(s, d graph.NodeID) (graph.Path, bool) {
	idx, ok := b.IndexBetween(s, d)
	if !ok {
		return graph.Path{}, false
	}
	return b.paths[idx], true
}

// IndexBetween returns the set position of the path Between returns: the
// first stored path from s to d.
func (b *Explicit) IndexBetween(s, d graph.NodeID) (int, bool) {
	if h := b.head(s, d); h >= 0 {
		return int(h), true
	}
	return 0, false
}

// PairHeads returns a Len()-sized mask marking, for every pair the set
// joins, its first stored path — the one IndexBetween returns. It is read
// off the pair chains in one pass, with no lookup by pair.
func (b *Explicit) PairHeads() []bool {
	head := make([]bool, len(b.paths))
	for i := range head {
		head[i] = true
	}
	for _, nx := range b.next {
		if nx >= 0 {
			head[nx] = false
		}
	}
	return head
}

// View implements Base.
func (b *Explicit) View() graph.View { return b.view }

// IndicesThroughEdge returns the set positions (Arc.Idx) of the stored
// paths traversing e. Shared index state — callers must not modify the
// slice.
//
//rbpc:hotpath
func (b *Explicit) IndicesThroughEdge(e graph.EdgeID) []int {
	if int(e) >= len(b.byEdge) {
		return nil
	}
	return b.byEdge[e]
}

// EdgeComplete reports whether the set contains the 1-hop path over every
// usable arc of its view (both orientations of every link, as the EdgeLSPs
// provisioning policy installs). When it holds, a decomposer scanning base
// candidates cheapest-first never needs a separate raw-edge scan: each
// usable arc's offer is preceded by a same-cost 1-hop base-path offer to
// the same node, so the arc's offer always loses the first-offer-wins
// tie-break and can be skipped without touching any label or tie-break.
func (b *Explicit) EdgeComplete() bool {
	n := b.view.Order()
	for u := 0; u < n; u++ {
		src := graph.NodeID(u)
		complete := true
		b.view.VisitArcs(src, func(a graph.Arc) bool {
			for i := b.head(src, a.To); i >= 0; i = b.next[i] {
				if e := b.paths[i].Edges; len(e) == 1 && e[0] == a.Edge {
					return true
				}
			}
			complete = false
			return false
		})
		if !complete {
			return false
		}
	}
	return true
}

var _ Base = (*Explicit)(nil)

// FromSources materializes the base paths b holds from every source in
// sources to every node it reaches, source by source and destinations
// ascending: each source's paths are read off b.Tree(source), the path
// b.Between returns. Passing every node as a source yields the paper's
// "one LSP per ordered pair" base set.
//
// Each tree is walked once: its paths are carved straight into slabs by the
// tree's parent links, with their costs summed in the set's (unpadded) view
// as Add sums them, and each walked source gets a dense head row, so a
// walked pair costs no lookup, map entry or allocation of its own. A
// repeated source is walked once.
//
// The walk uses every core: the distinct sources are split into GOMAXPROCS
// contiguous ranges (no more ranges than sources), each walked on its own
// goroutine, so b.Tree must be safe for concurrent use and is asked for one
// tree at a time per range. A range stores its paths from the position the
// ranges before it would reach if every source reached every node; a
// source that reaches fewer leaves a gap the ranges after it close up. The
// link lists are then counted per range and filled in parallel, each range
// at its own offset in every list. So position i holds the path a walk on
// one goroutine puts there, and every list is in ascending position order,
// at any GOMAXPROCS.
//
//rbpc:ctor
func FromSources(b TreeBase, sources []graph.NodeID) *Explicit {
	v := b.View()
	n := v.Order()
	ex := NewExplicit(v)
	ex.rows = make([][]int32, n)
	heads := make([]int32, len(sources)*n)
	walk := make([]graph.NodeID, 0, len(sources))
	for _, s := range sources {
		if ex.rows[s] == nil {
			k := len(walk)
			ex.rows[s] = heads[k*n : (k+1)*n : (k+1)*n]
			walk = append(walk, s)
		}
	}
	slots := len(walk) * (n - 1) // a source reaches at most the n-1 others
	ex.paths = make([]graph.Path, slots)
	ex.costs = make([]float64, slots)
	ex.next = make([]int32, slots)

	ws := make([]walker, max(1, min(runtime.GOMAXPROCS(0), len(walk))))
	par.Do(len(ws), func(i int) {
		lo, hi := i*len(walk)/len(ws), (i+1)*len(walk)/len(ws)
		ws[i].walk(ex, b, walk[lo:hi], int32(lo*(n-1)))
	})

	// Close the gaps, in order: a range's block only moves down, onto
	// positions the ranges before it have left.
	stored := int32(0)
	for i := range ws {
		w := &ws[i]
		if w.at != stored {
			copy(ex.paths[stored:], ex.paths[w.at:w.end])
			copy(ex.costs[stored:], ex.costs[w.at:w.end])
			copy(ex.next[stored:], ex.next[w.at:w.end])
		}
		w.shift = stored - w.at
		stored += w.end - w.at
	}
	ex.paths, ex.costs, ex.next = ex.paths[:stored], ex.costs[:stored], ex.next[:stored]
	last := &ws[len(ws)-1]
	ex.nodeSlab, ex.edgeSlab = last.nodeSlab, last.edgeSlab

	// The link lists are windows of one array: link e's holds the paths of
	// range 0 over e, then those of range 1, and so on. A range's uses
	// become its cursors into the windows.
	hops := 0
	for e := 0; e < v.Size(); e++ {
		for i := range ws {
			c := ws[i].uses[e]
			ws[i].uses[e] = hops
			hops += c
		}
	}
	flat := make([]int, hops)
	ex.byEdge = make([][]int, v.Size())
	for e := range ex.byEdge {
		lo, hi := ws[0].uses[e], hops
		if e+1 < len(ex.byEdge) {
			hi = ws[0].uses[e+1]
		}
		if hi > lo {
			ex.byEdge[e] = flat[lo:hi:hi]
		}
	}
	par.Do(len(ws), func(i int) { ws[i].index(ex, flat) })
	return ex
}

// walker is one goroutine's part of FromSources: a contiguous range of the
// distinct sources, its own slabs, and the paths it stored over each link.
type walker struct {
	srcs []graph.NodeID
	// at and end bound the positions the walker stored its paths at; shift
	// is how far they moved down when the gaps before them closed.
	at, end, shift int32
	nodeSlab       []graph.NodeID
	edgeSlab       []graph.EdgeID
	// uses[e] counts the walker's paths over link e, and then is its
	// cursor into e's list.
	uses []int
}

// walk stores the paths of srcs' trees from position at on, each source's
// destinations ascending, and fills their head rows.
//
//rbpc:ctor
func (w *walker) walk(ex *Explicit, b TreeBase, srcs []graph.NodeID, at int32) {
	w.srcs, w.at, w.end = srcs, at, at
	w.uses = make([]int, ex.view.Size())
	for _, s := range srcs {
		row := ex.rows[s]
		t := b.Tree(s)
		for d := range row {
			row[d] = -1
			if dst := graph.NodeID(d); dst != s && t.Reached(dst) {
				p := w.carve(t, dst)
				ex.paths[w.end], ex.costs[w.end], ex.next[w.end] = p, p.CostIn(ex.view), -1
				row[d] = w.end
				w.end++
			}
		}
	}
}

// carve copies the path of t from its root to d, a node t reaches, into
// the walker's slabs by t's parent links and counts its links: the path
// spath.Tree.PathTo builds, with no allocation of its own.
func (w *walker) carve(t *spath.Tree, d graph.NodeID) graph.Path {
	h := t.Hops(d)
	p := graph.Path{Nodes: grab(&w.nodeSlab, h+1), Edges: grab(&w.edgeSlab, h)}
	at := d
	for i := h; i > 0; i-- {
		p.Nodes[i] = at
		at, p.Edges[i-1] = t.Parent(at)
		w.uses[p.Edges[i-1]]++
	}
	p.Nodes[0] = at
	return p
}

// index moves the walker's head rows with its paths and lists its paths in
// the link lists, at its cursors into flat.
//
//rbpc:ctor
func (w *walker) index(ex *Explicit, flat []int) {
	if w.shift != 0 {
		for _, s := range w.srcs {
			for d, h := range ex.rows[s] {
				if h >= 0 {
					ex.rows[s][d] = h + w.shift
				}
			}
		}
	}
	for i := w.at + w.shift; i < w.end+w.shift; i++ {
		for _, e := range ex.paths[i].Edges {
			flat[w.uses[e]] = int(i)
			w.uses[e]++
		}
	}
}

// SubpathClosure returns a new explicit set containing every contiguous
// nontrivial subpath of every path in b. The paper requires base sets to
// contain "all subpaths of this shortest path"; for canonical sets that are
// not automatically subpath-closed this constructs the closure.
func SubpathClosure(b *Explicit) *Explicit {
	out := NewExplicit(b.view)
	for _, p := range b.paths {
		h := p.Hops()
		for i := 0; i < h; i++ {
			for j := i + 1; j <= h; j++ {
				out.Add(p.SubPath(i, j))
			}
		}
	}
	return out
}

// Corollary4Extend implements the paper's Corollary 4 base-set expansion:
// for each edge (u,v), append the edge to every base path that terminates
// at u or v, and also add the bare edge. The expanded set lets weighted
// restoration avoid the k extra edge components: after k failures the
// restoration path is a concatenation of at most k+1 paths from the
// expanded set.
//
// The expansion squares the storage, so it is intended for ISP-scale
// networks and tests (the paper sizes it at n(n-1) + 2m(n-1) for directed
// base paths).
func Corollary4Extend(b *Explicit, g *graph.Graph) *Explicit {
	out := NewExplicit(b.view)
	for _, p := range b.paths {
		out.Add(p)
	}
	for _, e := range g.Edges() {
		edgeUV := graph.Path{Nodes: []graph.NodeID{e.U, e.V}, Edges: []graph.EdgeID{e.ID}}
		edgeVU := graph.Path{Nodes: []graph.NodeID{e.V, e.U}, Edges: []graph.EdgeID{e.ID}}
		out.Add(edgeUV)
		out.Add(edgeVU)
		for _, p := range b.paths {
			// Append (u,v) to paths terminating at u; and (v,u) to paths
			// terminating at v. Skip if the path already uses the edge
			// (the result would backtrack and never helps restoration).
			if p.Dst() == e.U && !p.HasEdge(e.ID) && !p.HasNode(e.V) {
				out.Add(p.Concat(edgeUV))
			}
			if p.Dst() == e.V && !p.HasEdge(e.ID) && !p.HasNode(e.U) {
				out.Add(p.Concat(edgeVU))
			}
		}
	}
	return out
}

// EdgePath returns the single-edge path u -> v over edge id, oriented from
// u. It panics if u is not an endpoint.
func EdgePath(g graph.View, id graph.EdgeID, u graph.NodeID) graph.Path {
	e := g.Edge(id)
	return graph.Path{Nodes: []graph.NodeID{u, e.Other(u)}, Edges: []graph.EdgeID{id}}
}
