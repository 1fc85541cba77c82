// Package shard partitions the pair space by source across N independent
// serving shards, each an internal/engine instance owning one slice of
// the sources — the scale-out layer that takes the single-writer engine
// to full-size topologies.
//
// The partition is by source because the incremental builder's
// affected-pair sets already split cleanly along that axis: a failure's
// affected pairs group by source, every serving row is per-source, and a
// shard can therefore run its own writer, plan cache, and epoch sequence
// over its slice without ever coordinating with its peers on the hot
// path. Source src belongs to shard src mod N (the owner table, NewOwners),
// which routes queries and submissions to owners; the Coordinator fans
// failure/repair bursts out to every shard (each needs full
// failure knowledge to rebuild its rows), tracks per-shard epoch
// watermarks, and exposes a merged snapshot view (View) that never
// returns a torn cross-shard epoch.
//
// Engine snapshots share one canonical matrix and carry only per-source
// divergence rows, and sources outside a shard's slice or the provisioned
// hot set are not materialized at all.
// Queries for those cold pairs fall through to an admission-controlled
// on-demand tier (see cold.go) that reads them off the base set the way the
// writer does — Corollary 4 guarantees an optimal-cost concatenation exists
// for any connected pair, and core.Pull finds it from the source's
// post-failure distance row.
//
// The Coordinator is deployment-agnostic: it talks to its shards through
// the Worker seam (worker.go), which has exactly two implementations —
// a direct *engine.Engine adapter here (New) and the socket client of
// internal/shardrpc, whose workers are separate processes. The owner table
// is a pure function of the shard count and the topology's order, so
// remote processes agree on ownership without coordination.
package shard

import (
	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
)

// Config tunes the coordinator. The zero value of every field except
// Shards selects a default.
type Config struct {
	// Shards is the number of independent shard engines (required, 1 to
	// MaxShards).
	Shards int
	// Engine is the per-shard engine configuration template. Its Scheme
	// must be engine.SchemeSource (SourceOnly). Engine.Fault ==
	// engine.FaultSkewShard is the one fault the coordinator itself acts
	// on (chaos harness only).
	Engine engine.Config
	// Cold tunes the on-demand tier for non-materialized sources.
	Cold ColdConfig
}

// Stats is a point-in-time scrape of the coordinator: sums of the shard
// counters, the cold tier's counters, and the per-shard breakdown.
type Stats struct {
	Shards int
	// Epoch is the low watermark: the highest epoch every shard has
	// reached. Individual shards may be ahead.
	Epoch uint64

	Queries       int64
	Unroutable    int64
	Submitted     int64
	Dropped       int64
	QueueDepth    int
	Epochs        int64
	PlanCacheHits int64
	PlanCacheMiss int64

	// RowBytes sums resident routing-matrix bytes across shards;
	// DenseRowBytes is what ONE dense all-pairs engine would hold (the
	// shards partition a single pair space, so the baseline is not
	// summed). Their ratio is the cold-pair saving.
	RowBytes      int64
	DenseRowBytes int64

	// QueryLatency/EpochBuild take the worst shard per percentile — the
	// conservative tail, since per-shard histograms cannot be re-merged.
	QueryLatency metrics.Summary
	EpochBuild   metrics.Summary

	// Scheme is the restoration scheme the shard template was configured
	// with (all shards share it); the fields below it follow the
	// engine.Stats fields of the same names. Restore/LocalBuild take the
	// worst shard per percentile like the latency summaries above;
	// Stretch/DetourHops are count-weighted across shards; the counters
	// sum.
	Scheme            engine.Scheme
	Restore           metrics.Summary
	LocalBuild        metrics.Summary
	Stretch           metrics.AccSummary
	DetourHops        metrics.AccSummary
	LocalPairs        int64
	LocalUnrestorable int64
	Converged         int64
	// Incremental sums the per-shard incremental builder counters.
	Incremental engine.IncrementalStats
	Cold        ColdStats
	PerShard    []engine.Stats
}
