package paths

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rbpc/internal/graph"
	"rbpc/internal/spath"
)

// pairKey identifies an ordered source-destination pair.
type pairKey struct{ s, d graph.NodeID }

// Explicit is a materialized base set with inverted indexes. It powers the
// ILM-table accounting (how many LSPs traverse each router) and the
// source-router FEC-update planner (which base paths a link failure
// breaks).
//
// Once populated (Add is the build phase), an Explicit is read-only: every
// consumer — decomposers, planners, evaluation fan-outs — shares it
// concurrently without locking.
//
//rbpc:immutable
type Explicit struct {
	view graph.View

	paths     []graph.Path
	costs     []float64 // costs[i] is paths[i]'s cost in view
	byKey     map[string]int
	byPair    map[pairKey]int // canonical (first added) path per ordered pair
	byPairAll map[pairKey][]int
	byEdge    map[graph.EdgeID][]int
	byNode    map[graph.NodeID][]int // paths visiting the node (incl. endpoints)
	bySrc     map[graph.NodeID][]SourcePath

	// ai memoizes ArcIndex (a pure function of the populated set).
	ai atomic.Pointer[ArcIndex]
}

// SourcePath is one entry of the by-source index: a stored path plus its
// cost in the base view, precomputed so hot consumers (the sparse
// decomposer's Dijkstra) never rescan edges to price a candidate. Index is
// the path's position in the set (stable; see DeadUnder).
type SourcePath struct {
	Path  graph.Path
	Cost  float64
	Index int
}

// NewExplicit returns an empty explicit base set over v.
func NewExplicit(v graph.View) *Explicit {
	return &Explicit{
		view:      v,
		byKey:     make(map[string]int),
		byPair:    make(map[pairKey]int),
		byPairAll: make(map[pairKey][]int),
		byEdge:    make(map[graph.EdgeID][]int),
		byNode:    make(map[graph.NodeID][]int),
		bySrc:     make(map[graph.NodeID][]SourcePath),
	}
}

// Add inserts p into the set (deduplicating identical paths) and returns
// whether the set grew. Trivial paths are rejected: an LSP needs at least
// one hop.
//
//rbpc:ctor
func (b *Explicit) Add(p graph.Path) bool {
	if p.IsTrivial() {
		return false
	}
	key := p.Key()
	if _, dup := b.byKey[key]; dup {
		return false
	}
	idx := len(b.paths)
	b.ai.Store(nil)
	b.paths = append(b.paths, p.Clone())
	b.costs = append(b.costs, b.paths[idx].CostIn(b.view))
	b.byKey[key] = idx
	pk := pairKey{p.Src(), p.Dst()}
	if _, have := b.byPair[pk]; !have {
		b.byPair[pk] = idx
	}
	b.byPairAll[pk] = append(b.byPairAll[pk], idx)
	for _, e := range p.Edges {
		b.byEdge[e] = append(b.byEdge[e], idx)
	}
	for _, n := range p.Nodes {
		b.byNode[n] = append(b.byNode[n], idx)
	}
	src := p.Src()
	b.bySrc[src] = append(b.bySrc[src], SourcePath{Path: b.paths[idx], Cost: b.costs[idx], Index: idx})
	return true
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

// FromSource returns every stored path starting at s with its precomputed
// base-view cost, in insertion order. The returned slice is shared index
// state: callers must not modify it.
//
//rbpc:hotpath
func (b *Explicit) FromSource(s graph.NodeID) []SourcePath { return b.bySrc[s] }

// DeadUnder returns a Len()-sized mask marking every stored path broken by
// fv's removed edges and nodes: dead[i] == !Survives(paths[i], fv). It
// costs O(paths through the removed elements), not O(total paths), so
// consumers doing many survival checks against one failure view (the
// sparse decomposer) can trade a per-check edge scan for one bit load.
func (b *Explicit) DeadUnder(fv *graph.FailureView) []bool {
	return b.DeadUnderInto(fv, nil)
}

// DeadUnderInto is DeadUnder writing into caller-owned scratch: if dead
// has capacity for Len() entries it is cleared and reused, otherwise a
// fresh mask is allocated. Consumers that rebuild their mask once per
// failure view (the online engine's pooled sparse solvers, rebound every
// epoch) use it to avoid a Len()-sized allocation per epoch.
func (b *Explicit) DeadUnderInto(fv *graph.FailureView, dead []bool) []bool {
	if cap(dead) >= len(b.paths) {
		dead = dead[:len(b.paths)]
		clear(dead)
	} else {
		dead = make([]bool, len(b.paths))
	}
	for _, e := range fv.RemovedEdges() {
		for _, idx := range b.byEdge[e] {
			dead[idx] = true
		}
	}
	// A stored path visiting a removed node is dead: it is nontrivial, so
	// it traverses an edge incident to that node.
	for _, nd := range fv.RemovedNodes() {
		for _, idx := range b.byNode[nd] {
			dead[idx] = true
		}
	}
	return dead
}

// Len returns the number of stored paths.
func (b *Explicit) Len() int { return len(b.paths) }

// All returns the stored paths. Callers must not modify the slice.
func (b *Explicit) All() []graph.Path { return b.paths }

// Contains implements Base.
func (b *Explicit) Contains(p graph.Path) bool {
	if p.IsTrivial() {
		return false
	}
	_, ok := b.byKey[p.Key()]
	return ok
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
	idx, ok := b.byPair[pairKey{s, d}]
	return idx, ok
}

// View implements Base.
func (b *Explicit) View() graph.View { return b.view }

// IndicesThroughEdge returns the set positions (see SourcePath.Index) of
// the stored paths traversing e. Shared index state — callers must not
// modify the slice.
//
//rbpc:hotpath
func (b *Explicit) IndicesThroughEdge(e graph.EdgeID) []int { return b.byEdge[e] }

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
			for _, idx := range b.byPairAll[pairKey{src, a.To}] {
				if e := b.paths[idx].Edges; len(e) == 1 && e[0] == a.Edge {
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

// ThroughEdge returns the base paths traversing edge e.
func (b *Explicit) ThroughEdge(e graph.EdgeID) []graph.Path {
	idxs := b.byEdge[e]
	out := make([]graph.Path, len(idxs))
	for i, idx := range idxs {
		out[i] = b.paths[idx]
	}
	return out
}

// ThroughInteriorNode returns the base paths that visit node n strictly
// between their endpoints — the paths a failure of router n breaks.
func (b *Explicit) ThroughInteriorNode(n graph.NodeID) []graph.Path {
	var out []graph.Path
	for _, idx := range b.byNode[n] {
		if p := b.paths[idx]; p.HasInteriorNode(n) {
			out = append(out, p)
		}
	}
	return out
}

// ILMEntries returns, for every node, the number of ILM entries required to
// provision all stored paths as LSPs: a path of h hops installs one entry
// at each of its h downstream routers (every router that receives the
// labeled packet: the interior nodes and the egress; the ingress writes
// labels from its FEC table, not its ILM).
func (b *Explicit) ILMEntries() map[graph.NodeID]int {
	entries := make(map[graph.NodeID]int)
	for _, p := range b.paths {
		for _, n := range p.Nodes[1:] {
			entries[n]++
		}
	}
	return entries
}

var _ Base = (*Explicit)(nil)

// FromSources materializes the canonical base paths from every source in
// sources to every reachable destination, using base's Between. Passing
// every node as a source yields the paper's "one LSP per ordered pair" base
// set.
func FromSources(b Base, sources []graph.NodeID) *Explicit {
	ex := NewExplicit(b.View())
	n := b.View().Order()
	for _, s := range sources {
		for d := 0; d < n; d++ {
			if graph.NodeID(d) == s {
				continue
			}
			if p, ok := b.Between(s, graph.NodeID(d)); ok {
				ex.Add(p)
			}
		}
	}
	return ex
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

// EnsureEdgePaths adds, for every edge that is not itself a shortest path
// between its endpoints, the single-edge path in both directions. The
// paper: "In the rare cases where an edge (u, v) is not a shortest path
// between u and v, the basic set of paths must also contain the single edge
// path". The oracle must answer for the same view as b.
func EnsureEdgePaths(b *Explicit, g *graph.Graph, o *spath.Oracle) int {
	added := 0
	for _, e := range g.Edges() {
		if e.W > o.Dist(e.U, e.V) {
			if b.Add(EdgePath(g, e.ID, e.U)) {
				added++
			}
			if b.Add(EdgePath(g, e.ID, e.V)) {
				added++
			}
		}
	}
	return added
}

// Stats summarizes an explicit base set.
type Stats struct {
	Paths     int
	Pairs     int
	MaxILM    int
	TotalILM  int
	AvgILM    float64
	MaxHops   int
	TotalHops int
}

// Summarize computes Stats for b.
func Summarize(b *Explicit) Stats {
	s := Stats{Paths: b.Len(), Pairs: len(b.byPair)}
	ilm := b.ILMEntries()
	for _, c := range ilm {
		s.TotalILM += c
		if c > s.MaxILM {
			s.MaxILM = c
		}
	}
	if len(ilm) > 0 {
		s.AvgILM = float64(s.TotalILM) / float64(len(ilm))
	}
	for _, p := range b.paths {
		s.TotalHops += p.Hops()
		if p.Hops() > s.MaxHops {
			s.MaxHops = p.Hops()
		}
	}
	return s
}

// String renders Stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("paths=%d pairs=%d ilm(max=%d avg=%.1f) hops(max=%d total=%d)",
		s.Paths, s.Pairs, s.MaxILM, s.AvgILM, s.MaxHops, s.TotalHops)
}

// SortedPairs returns the ordered pairs covered by the set, sorted, mainly
// for deterministic iteration in tests and reports.
func (b *Explicit) SortedPairs() [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(b.byPair))
	for pk := range b.byPair {
		out = append(out, [2]graph.NodeID{pk.s, pk.d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
