package paths

import (
	"rbpc/internal/graph"
)

// LiveIndex maintains, per source, the cost-sorted candidate columns of a
// CostIndex filtered down to the paths that survive the current set of
// failed edges. It is the persistent-across-epochs form of the solver's
// dead-path mask: instead of rebuilding a Len()-sized mask every epoch and
// testing one bit per candidate inside the Dijkstra scan, the filtering is
// done once per epoch — and only for the sources a burst actually touched.
// Untouched sources keep sharing the CostIndex's own columns (a pure
// alias, no copy), so a quiet epoch costs O(paths through the delta edges)
// regardless of base-set size.
//
// Ownership model: a LiveIndex is owned by a single writer (the engine's
// publish loop), which applies each epoch's failure delta with Update
// before fanning out solve workers; during the fan-out it is read-only and
// safe to share across workers. It models edge failures only — callers
// whose failure views remove nodes must not install it.
type LiveIndex struct {
	ex *Explicit

	// The cost index's columns; baseIdx names each candidate by its
	// base-set position, which a solver hands on in core.Component.Base.
	baseOff   []int32
	baseCosts []float64
	baseDsts  []int32
	baseIdx   []int32

	// Per-source live segments. A clean source (no dead candidate) aliases
	// the base columns; a dirty source owns filtered copies.
	costs [][]float64
	dsts  [][]int32
	idx   [][]int32

	// deadEdges[i] counts currently-failed edges on stored path i; the path
	// is dead iff the count is nonzero. srcDead[u] counts dead paths out of
	// u; a source re-aliases the base columns when it returns to zero.
	deadEdges []int32
	srcDead   []int32

	// own{Costs,Dsts,Idx}[u] hold a dirty source's last owned segments so
	// refiltering reuses their capacity instead of reallocating per epoch.
	ownCosts [][]float64
	ownDsts  [][]int32
	ownIdx   [][]int32

	// touched and touchGen dedup the sources one Update touches: source u is
	// already on the touched list iff touchGen[u] == gen. Writer-owned
	// scratch, like the rest of the index.
	touched  []graph.NodeID
	touchGen []uint32
	gen      uint32

	// edgeOK caches Explicit.EdgeComplete at construction (the set is
	// immutable): live filtering keeps a 1-hop path exactly while its edge
	// is up, so the attestation survives every Update.
	edgeOK bool
}

// NewLiveIndex builds a LiveIndex over b and its cost index with no edges
// failed: every source starts clean, aliasing ci's columns.
//
//rbpc:ctor
func NewLiveIndex(b *Explicit, ci *CostIndex) *LiveIndex {
	n := ci.Order()
	off, costs, dsts, idx := ci.Columns()
	li := &LiveIndex{
		ex:        b,
		baseOff:   off,
		baseCosts: costs,
		baseDsts:  dsts,
		baseIdx:   idx,
		costs:     make([][]float64, n),
		dsts:      make([][]int32, n),
		idx:       make([][]int32, n),
		deadEdges: make([]int32, b.Len()),
		srcDead:   make([]int32, n),
		ownCosts:  make([][]float64, n),
		ownDsts:   make([][]int32, n),
		ownIdx:    make([][]int32, n),
		touchGen:  make([]uint32, n),
	}
	for u := 0; u < n; u++ {
		li.alias(graph.NodeID(u))
	}
	li.edgeOK = b.EdgeComplete()
	return li
}

// EdgeComplete reports whether every usable arc of the base view is
// shadowed by a live same-cost 1-hop base path (see Explicit.EdgeComplete).
// Solvers use it to skip the raw-edge candidate scan outright.
//
//rbpc:hotpath
func (li *LiveIndex) EdgeComplete() bool { return li.edgeOK }

// alias points source u's live segments at the unfiltered base columns.
func (li *LiveIndex) alias(u graph.NodeID) {
	lo, hi := li.baseOff[u], li.baseOff[u+1]
	li.costs[u] = li.baseCosts[lo:hi]
	li.dsts[u] = li.baseDsts[lo:hi]
	li.idx[u] = li.baseIdx[lo:hi]
}

// Update applies one epoch's failure delta: newlyDown edges just failed,
// repaired edges just restored. The cumulative down-set after all Updates
// must equal the removed-edge set of the failure view the solvers run
// against (and that view must remove no nodes). Only sources owning a path
// through a delta edge are refiltered; the rest keep their segments as-is.
func (li *LiveIndex) Update(newlyDown, repaired []graph.EdgeID) {
	if len(newlyDown) == 0 && len(repaired) == 0 {
		return
	}
	// touched collects the sources whose dead-path population changed, in
	// first-touch order, each once: a per-source generation stamp replaces a
	// search of the list per dead path.
	li.gen++
	if li.gen == 0 { // wrapped: stale stamps could collide, start over
		clear(li.touchGen)
		li.gen = 1
	}
	touched := li.touched[:0]
	mark := func(u graph.NodeID) {
		if li.touchGen[u] != li.gen {
			li.touchGen[u] = li.gen
			touched = append(touched, u)
		}
	}
	for _, e := range newlyDown {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			li.deadEdges[idx]++
			if li.deadEdges[idx] == 1 {
				u := li.ex.SourceOf(idx)
				li.srcDead[u]++
				mark(u)
			}
		}
	}
	for _, e := range repaired {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			li.deadEdges[idx]--
			if li.deadEdges[idx] == 0 {
				u := li.ex.SourceOf(idx)
				li.srcDead[u]--
				mark(u)
			}
		}
	}
	for _, u := range touched {
		if li.srcDead[u] == 0 {
			li.alias(u)
			continue
		}
		li.refilter(u)
	}
	li.touched = touched
}

// refilter rebuilds u's owned live segments from the base columns, keeping
// only candidates whose path has no failed edge. Candidate order (ascending
// cost, insertion index) is preserved, so a solver scanning the filtered
// segment makes exactly the relaxations the dead-mask scan would.
func (li *LiveIndex) refilter(u graph.NodeID) {
	lo, hi := li.baseOff[u], li.baseOff[u+1]
	cs := li.ownCosts[u][:0]
	ds := li.ownDsts[u][:0]
	is := li.ownIdx[u][:0]
	for k := lo; k < hi; k++ {
		i := li.baseIdx[k]
		if li.deadEdges[i] != 0 {
			continue
		}
		cs = append(cs, li.baseCosts[k])
		ds = append(ds, li.baseDsts[k])
		is = append(is, i)
	}
	li.ownCosts[u], li.ownDsts[u], li.ownIdx[u] = cs, ds, is
	li.costs[u], li.dsts[u], li.idx[u] = cs, ds, is
}

// LiveFromSource returns u's live candidate columns: parallel slices of
// base-view cost, path destination, and base-set index (SourcePath.Index,
// what PathAt takes), sorted ascending by (cost, index). Shared index state —
// callers must not modify or retain past the next Update.
//
//rbpc:hotpath
func (li *LiveIndex) LiveFromSource(u graph.NodeID) (costs []float64, dsts []int32, idx []int32) {
	return li.costs[u], li.dsts[u], li.idx[u]
}

// PathAt returns the stored path at base-set index i, as named by
// LiveFromSource's idx column.
//
//rbpc:hotpath
func (li *LiveIndex) PathAt(i int32) graph.Path { return li.ex.paths[i] }

// DeadPaths reports how many stored paths are currently dead — telemetry
// for tests asserting the index tracks the failure state.
func (li *LiveIndex) DeadPaths() int {
	n := 0
	for _, c := range li.deadEdges {
		if c != 0 {
			n++
		}
	}
	return n
}
