package paths

import "rbpc/internal/graph"

// LiveIndex is the liveness of a base set's paths under the current set of
// failed edges, carried across epochs: one count per stored path of how many
// of its edges are down. It is the persistent form of the dead-path mask
// (Explicit.DeadUnder): a transition costs the paths through its delta
// edges, whatever the base set's size, and a solve tests a candidate with
// one load.
//
// Ownership model: a LiveIndex is owned by a single writer (the engine's
// publish loop), which applies each epoch's failure delta with Update
// before fanning out solve workers; during the fan-out it is read-only and
// safe to share across workers. It models edge failures only — callers
// whose failure views remove nodes must not use it.
type LiveIndex struct {
	ex   *Explicit
	dead []int32 // dead[i] counts the currently-failed edges on stored path i
}

// NewLiveIndex builds a LiveIndex over b with no edges failed.
func NewLiveIndex(b *Explicit) *LiveIndex {
	return &LiveIndex{ex: b, dead: make([]int32, b.Len())}
}

// Update applies one epoch's failure delta: newlyDown edges just failed,
// repaired edges just restored. The cumulative down-set after all Updates
// must equal the removed-edge set of the failure view the solves run
// against (and that view must remove no nodes).
func (li *LiveIndex) Update(newlyDown, repaired []graph.EdgeID) {
	for _, e := range newlyDown {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			li.dead[idx]++
		}
	}
	for _, e := range repaired {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			li.dead[idx]--
		}
	}
}

// Dead returns the per-path failed-edge counts, indexed by base-set
// position: path i survives iff Dead()[i] == 0. Shared index state — callers
// must not modify it, and the next Update moves it.
//
//rbpc:hotpath
func (li *LiveIndex) Dead() []int32 { return li.dead }
