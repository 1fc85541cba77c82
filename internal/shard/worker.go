package shard

import (
	"rbpc/internal/engine"
	"rbpc/internal/failure"
)

// Worker is the seam between the Coordinator and whatever writes one shard
// of the pair space: an engine over the shard's SliceProvision slice,
// reached directly (engineWorker), or the socket client of
// internal/shardrpc, which sends the churn to a worker process's engine and
// decodes the epochs it publishes into a replica. Everything
// deployment-agnostic — ownership, failed-set model, fan-out, barrier, the
// query pool, cold diversion, views, stats merge — sits above this
// interface; an implementation only moves the writes to its engine and
// reports what a reader needs to know about them.
type Worker interface {
	// Apply hands one churn burst to the shard's writer without waiting
	// for it to publish; the writer publishes it as one transition. evs is
	// not kept after the call. A worker that is down drops it; the
	// coordinator replays its model to the replacement.
	Apply(evs []failure.Event)
	// Flush blocks until every burst applied before the call is reflected
	// in Snapshot.
	Flush()
	// Snapshot is the shard's current epoch as this process sees it (the
	// engine's published snapshot, or the client's decoded replica; a worker
	// that is down keeps its last one). The coordinator's pool answers the
	// shard's sources from it.
	Snapshot() *engine.Snapshot
	// Alive reports whether the worker can publish. An engine always can;
	// while a worker cannot, its sources divert to the cold tier.
	Alive() bool
	// Stats scrapes the shard's engine. Its serving counters read 0: the
	// engine answers no query.
	Stats() engine.Stats
	Close()
}

// engineWorker is the in-process Worker: the engine itself, built with
// WriterConfig. Apply is its ApplyEvents; the rest are its own methods.
type engineWorker struct{ *engine.Engine }

func (w engineWorker) Apply(evs []failure.Event) { w.ApplyEvents(evs) }

func (w engineWorker) Alive() bool { return true }

// WriterConfig is the configuration of a shard's engine: cfg with a query
// pool of one worker and one queue slot, and no result tap. The coordinator
// answers every query of the deployment, so a shard engine's pool stays
// idle; New and every worker process build their engines with it.
func WriterConfig(cfg engine.Config) engine.Config {
	cfg.Workers, cfg.QueueDepth, cfg.OnResult = 1, 1, nil
	return cfg
}
