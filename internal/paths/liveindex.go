package paths

import "rbpc/internal/graph"

// LiveIndex is the liveness of a base set's paths under the current set of
// failed edges, carried across epochs: one count per stored path of how many
// of its edges are down. It is the persistent form of the dead-path mask
// (Explicit.DeadUnderInto): a transition costs the paths through its delta
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

// LiveMoves receives the paths one Update moved across zero, as set
// positions in the order the update met them: Broken the paths whose count
// left zero, Healed the paths whose count returned to it. Update truncates
// both before appending, so one LiveMoves is reusable scratch.
type LiveMoves struct {
	Broken, Healed []int
}

// NewLiveIndex builds a LiveIndex over b with no edges failed.
func NewLiveIndex(b *Explicit) *LiveIndex {
	return &LiveIndex{ex: b, dead: make([]int32, b.Len())}
}

// Update applies one epoch's failure delta: newlyDown edges just failed,
// repaired edges just restored. The cumulative down-set after all Updates
// must equal the removed-edge set of the failure view the solves run
// against (and that view must remove no nodes).
//
// Failures are applied before repairs, so a path crossing both a newly
// failed and a repaired link keeps a positive count throughout and moves in
// neither direction. A non-nil moves receives the paths that did move.
func (li *LiveIndex) Update(newlyDown, repaired []graph.EdgeID, moves *LiveMoves) {
	if moves != nil {
		moves.Broken, moves.Healed = moves.Broken[:0], moves.Healed[:0]
	}
	for _, e := range newlyDown {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			if li.dead[idx] == 0 && moves != nil {
				moves.Broken = append(moves.Broken, idx)
			}
			li.dead[idx]++
		}
	}
	for _, e := range repaired {
		for _, idx := range li.ex.IndicesThroughEdge(e) {
			if li.dead[idx]--; li.dead[idx] == 0 && moves != nil {
				moves.Healed = append(moves.Healed, idx)
			}
		}
	}
}

// Dead returns the per-path failed-edge counts, indexed by base-set
// position: path i survives iff Dead()[i] == 0. Shared index state — callers
// must not modify it, and the next Update moves it.
//
//rbpc:hotpath
func (li *LiveIndex) Dead() []int32 { return li.dead }
