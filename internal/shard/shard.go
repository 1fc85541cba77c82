// Package shard partitions the pair space by source across N independent
// writing shards, each an internal/engine instance owning one slice of
// the sources — the scale-out layer that takes the single-writer engine
// to full-size topologies.
//
// The partition is by source because the incremental builder's
// affected-pair sets already split cleanly along that axis: a failure's
// affected pairs group by source, every serving row is per-source, and a
// shard can therefore run its own writer, plan cache, and epoch sequence
// over its slice without ever coordinating with its peers on the hot
// path. Source src belongs to shard src mod N (the owner table, NewOwners).
// The Coordinator fans failure/repair bursts out to every shard (each
// needs full failure knowledge to rebuild its rows), answers every query
// through one engine.Pool over all the shards' snapshots (a pair's answer
// is its source's row), tracks per-shard epoch watermarks, and exposes a
// merged snapshot view (View) that never returns a torn cross-shard epoch.
//
// Engine snapshots share one canonical matrix and carry only per-source
// divergence rows, and sources outside a shard's slice or the provisioned
// hot set are not materialized at all.
// Queries for those cold pairs fall through to an admission-controlled
// on-demand tier (see cold.go) that reads them off the base set the way the
// writer does — Corollary 4 guarantees an optimal-cost concatenation exists
// for any connected pair, and core.Pull finds it from the source's
// post-failure distance row. The coordinator admits the tier beside its
// query pool: a burst's cold part, like the pool's part, is one queue
// entry, admitted or shed whole.
//
// The Coordinator is deployment-agnostic: it talks to its shards through
// the Worker seam (worker.go) — the writes and the snapshots they publish,
// no query — which has exactly two implementations: a direct
// *engine.Engine adapter here (New) and the socket client of
// internal/shardrpc, whose workers are separate processes. The owner table
// is a pure function of the shard count and the topology's order, so
// remote processes agree on ownership without coordination.
package shard

import "rbpc/internal/engine"

// Config tunes the coordinator. The zero value of every field except
// Shards selects a default. The cold tier has no knob: its pool and its
// admission bound are constants (cold.go).
type Config struct {
	// Shards is the number of independent shard engines (required, 1 to
	// MaxShards).
	Shards int
	// Engine is the per-shard engine configuration template. Its Scheme
	// must be engine.SchemeSource (SourceOnly). Workers, QueueDepth and
	// OnResult size and tap the coordinator's one pool (Shards × Workers
	// workers, Shards × QueueDepth queue slots) and the cold tier; a shard
	// engine's own pool stays idle (WriterConfig). Engine.Fault ==
	// engine.FaultSkewShard is the one fault the coordinator itself acts
	// on (chaos harness only).
	Engine engine.Config
}

// Stats is a point-in-time scrape of the coordinator: the shards' engine
// records merged into one (MergeStats), the cold tier's counters, and the
// per-shard breakdown.
type Stats struct {
	// Stats is the merged record, read as a lone engine's: Epoch is the low
	// watermark (every shard has reached it; individual shards may be
	// ahead); counters sum, and Queries and Dropped count the cold tier's
	// answers and sheds too; latency summaries take the worst shard per
	// percentile, since per-shard histograms cannot be re-merged; Stretch
	// and DetourHops are count-weighted; SnapshotAge is the oldest shard's.
	// RowBytes sums resident routing-matrix bytes, while DenseRowBytes is
	// what ONE dense all-pairs engine would hold (the shards partition a
	// single pair space), so their ratio is the cold-pair saving.
	engine.Stats
	Shards   int
	Cold     ColdStats
	PerShard []engine.Stats
}
