package shard

import (
	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
)

// Worker is the seam between the Coordinator and whatever serves one
// shard of the pair space: an engine over the shard's SliceProvision slice,
// reached directly (engineWorker), or the socket client of
// internal/shardrpc, which sends the churn to a worker process's engine and
// answers every query from the replica of its epochs through an
// engine.Pool — the engine's own query pool. Everything
// deployment-agnostic — ownership, failed-set model, fan-out, barrier,
// routing, cold diversion, views, stats merge — sits above this interface;
// an implementation only moves the calls to its engine or its replica and
// reports whether it still can.
type Worker interface {
	// Apply hands one churn burst to the shard's writer without waiting
	// for it to publish; the writer publishes it as one transition. evs is
	// not kept after the call. A worker that is down drops it; the
	// coordinator replays its model to the replacement.
	Apply(evs []failure.Event)
	// Flush blocks until every burst applied before the call is reflected
	// in Snapshot.
	Flush()
	// Query answers one pair synchronously from Snapshot. ok is false when
	// the worker is down; the coordinator then answers from the cold tier.
	// A worker counts every query it answers, here and in SubmitBatch,
	// exactly once in its own Stats — the coordinator keeps no query
	// counter.
	Query(src, dst graph.NodeID) (res engine.Result, ok bool)
	// SubmitBatch enqueues the worker's part of an async burst: pairs is
	// the whole burst, shared read-only with the other workers it was
	// handed to, and owned is how many of its pairs have a source this
	// worker materializes — the ones it answers. The part is admitted or
	// shed as a unit; the result is owned or 0.
	SubmitBatch(pairs []rbpc.Pair, owned int) int
	// AffectedPairs lists the pairs of this shard's slice whose primary
	// crosses the link (static; callers must not modify the result).
	AffectedPairs(ed graph.EdgeID) []graph.NodePair
	// Snapshot is the shard's current epoch as this process sees it (the
	// engine's published snapshot, or the client's decoded replica).
	Snapshot() *engine.Snapshot
	// Alive reports whether the worker can serve. An engine always can.
	Alive() bool
	// Drain blocks until every query accepted before the call is answered.
	Drain()
	Stats() engine.Stats
	Close()
}

// engineWorker is the in-process Worker: the engine itself. It adds
// nothing to the seam — Apply/Flush/AffectedPairs/Snapshot/Drain/Stats/
// Close are the embedded engine's own methods, SubmitBatch its
// SubmitOwned.
type engineWorker struct{ *engine.Engine }

func (w engineWorker) Apply(evs []failure.Event) { w.ApplyEvents(evs) }

//rbpc:hotpath
func (w engineWorker) SubmitBatch(pairs []rbpc.Pair, owned int) int {
	return w.SubmitOwned(pairs, owned)
}

func (w engineWorker) Alive() bool { return true }

// Query is the in-process serving path: a lock-free row read.
//
//rbpc:hotpath
func (w engineWorker) Query(src, dst graph.NodeID) (engine.Result, bool) {
	return w.Engine.Query(src, dst), true
}
