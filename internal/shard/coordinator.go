package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
)

// Coordinator fronts N shard workers: it partitions the provisioned pair
// space by source (the owner table, NewOwners), routes queries and
// submissions to owners,
// fans failure/repair bursts out to every worker, and merges per-worker
// state into consistent cross-shard views and stats. It is the thin
// layer — all serving and epoch building happens inside the workers'
// engines — and the only one: the same coordinator runs over in-process
// engines (New) and over worker processes (internal/shardrpc, through
// Over). The query path takes no lock; the one mutex orders bursts and
// guards the failed-set model they fold into.
type Coordinator struct {
	owners Owners
	w      []Worker
	cold   *ColdTier
	// skew is the injected FaultSkewShard: worker 0 never learns of churn.
	skew bool
	// slot folds materialization into ownership, for one table probe per
	// pair: a source with a materialized serving row reads its owner's
	// index, every other source reads len(w), the cold slot.
	// Materialization is static (the overlay only ever diverges
	// provisioned rows), so the table answers for every epoch.
	slot []uint8
	// dec builds detached snapshots of the model for cold solves while an
	// owner is down. Nil in process: an engine is never down, and the
	// in-process shape does not pay for a second canonical matrix.
	dec *engine.SnapDecoder
	// restore is the time-to-restore histogram: the prober's samples are
	// recorded here, keyed by owner, never on a worker.
	restore metrics.Histogram

	mu sync.Mutex
	// model is the failed-set of the event stream so far: what a
	// replacement worker is resynced to, and what detached snapshots are
	// cut from.
	model  map[graph.EdgeID]bool //rbpc:guardedby mu
	bursts uint64                //rbpc:guardedby mu
	// one is Fail's and Repair's burst, reused: Worker.Apply keeps none.
	one [1]failure.Event //rbpc:guardedby mu
	// detached caches the canonical-only snapshot of the model: dropped by
	// every burst, rebuilt by the first dead-owner query after it.
	detached atomic.Pointer[engine.Snapshot]
}

// New partitions the provision across cfg.Shards in-process engines and
// starts them. Each shard serves only the sources it owns (engine rows are
// allocated per served source, so unowned — and unprovisioned cold —
// sources cost it nothing); graph, base set, LSP table and network are
// shared, and every engine only reads them. The provision must be
// servable, as for engine.New.
func New(p rbpc.Provision, cfg Config) (*Coordinator, error) {
	if err := SourceOnly(cfg.Engine.Scheme); err != nil {
		return nil, err
	}
	owners, err := NewOwners(cfg.Shards, p.Graph.Order())
	if err != nil {
		return nil, err
	}
	workers := make([]Worker, cfg.Shards)
	for i := range workers {
		eng, err := engine.New(SliceProvision(p, owners, i), cfg.Engine)
		if err != nil {
			for _, w := range workers[:i] {
				w.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		workers[i] = engineWorker{eng}
	}
	return Over(p, cfg, owners, workers, nil)
}

// SourceOnly is the one statement of what sharded serving supports: the
// source-router scheme. The coordinator's cold tier, the ownership of a
// pair by its source, and the snapshot wire format all assume a
// pair's answer is its source's row; the local schemes' ILM patches and
// flood horizons are not partitioned or shipped (ROADMAP item 1).
func SourceOnly(s engine.Scheme) error {
	if s != engine.SchemeSource {
		return fmt.Errorf("shard: sharded serving is source-scheme only (got %v); serve %v from a single engine", s, s)
	}
	return nil
}

// Over assembles the coordinator over already-running workers, one per
// shard, each serving SliceProvision(p, owners, i); owners is the owner
// table over p's nodes (NewOwners). dec is required when a worker can be
// down (it cuts the detached snapshots their sources are then solved
// against) and nil otherwise. A non-source cfg.Engine.Scheme is an error
// (SourceOnly), and so is a provision the cold tier cannot answer from
// (rbpc.Provision.Servable).
func Over(p rbpc.Provision, cfg Config, owners Owners, workers []Worker, dec *engine.SnapDecoder) (*Coordinator, error) {
	if err := SourceOnly(cfg.Engine.Scheme); err != nil {
		return nil, err
	}
	if err := p.Servable(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if len(owners) != p.Graph.Order() || len(workers) > MaxShards {
		return nil, fmt.Errorf("shard: owner table covers %d sources of %d, over %d workers (at most %d)",
			len(owners), p.Graph.Order(), len(workers), MaxShards)
	}
	slot := make([]uint8, len(owners))
	for src, o := range owners {
		if int(o) >= len(workers) {
			return nil, fmt.Errorf("shard: source %d is owned by shard %d of %d", src, o, len(workers))
		}
		slot[src] = uint8(len(workers))
		if p.Serves[src] {
			slot[src] = o
		}
	}
	return &Coordinator{
		owners: owners,
		w:      workers,
		cold:   newColdTier(p.Base, p.BaseLSPs, cfg.Engine.OnResult),
		skew:   cfg.Engine.Fault == engine.FaultSkewShard,
		slot:   slot,
		dec:    dec,
		model:  make(map[graph.EdgeID]bool),
	}, nil
}

// SliceProvision returns the provision slice shard i serves under the
// owner table: p's served sources narrowed to those i owns. Graph, base
// set, network and the LSP table stay shared — an engine only reads them.
// It is the single definition of the shard partition — New and every remote
// worker process slice with it, so a worker rebuilt from the same provision
// serves exactly the rows its in-process twin would.
func SliceProvision(p rbpc.Provision, owners Owners, i int) rbpc.Provision {
	serves := make([]bool, len(p.Serves))
	for src, served := range p.Serves {
		serves[src] = served && int(owners[src]) == i
	}
	sp := p
	sp.Serves = serves
	return sp
}

// Shards returns the number of workers.
func (c *Coordinator) Shards() int { return len(c.w) }

// Shard returns worker i — the chaos harness and the benchmark inspect
// per-shard snapshots directly.
func (c *Coordinator) Shard(i int) Worker { return c.w[i] }

// Owner returns the index of the worker owning src's row.
//
//rbpc:hotpath
func (c *Coordinator) Owner(src graph.NodeID) int { return int(c.owners[src]) }

// route is the table read every query starts with: src's owner, and
// whether that owner holds a materialized row for it.
//
//rbpc:hotpath
func (c *Coordinator) route(src graph.NodeID) (owner int, hot bool) {
	return int(c.owners[src]), int(c.slot[src]) < len(c.w)
}

// Fail fans a link failure out to every worker (each needs full failure
// knowledge to rebuild the rows it owns).
func (c *Coordinator) Fail(ed graph.EdgeID) { c.applyOne(failure.Event{Edge: ed}) }

// Repair fans a link repair out to every worker.
func (c *Coordinator) Repair(ed graph.EdgeID) { c.applyOne(failure.Event{Repair: true, Edge: ed}) }

func (c *Coordinator) applyOne(ev failure.Event) {
	c.mu.Lock()
	c.one[0] = ev
	c.fanOutLocked(c.one[:])
	c.mu.Unlock()
}

// ApplyEvents fans a churn burst out to every worker as one burst, which
// each worker's engine publishes as one transition.
func (c *Coordinator) ApplyEvents(evs []failure.Event) {
	if len(evs) == 0 {
		return
	}
	c.mu.Lock()
	c.fanOutLocked(evs)
	c.mu.Unlock()
}

// fanOutLocked folds the burst into the model and hands it to every
// worker. Holding mu across the hand-off is what gives every worker the
// bursts in the same order.
//
//rbpc:locked
func (c *Coordinator) fanOutLocked(evs []failure.Event) {
	for _, ev := range evs {
		if ev.Repair {
			delete(c.model, ev.Edge)
		} else {
			c.model[ev.Edge] = true
		}
	}
	c.bursts++
	c.detached.Store(nil)
	for i, w := range c.w {
		if i == 0 && c.skew {
			continue
		}
		w.Apply(evs)
	}
}

// Failed returns the model failed-set — every event sent so far folded
// in, whether or not the workers have published it — sorted ascending.
func (c *Coordinator) Failed() []graph.EdgeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failedLocked()
}

//rbpc:locked
func (c *Coordinator) failedLocked() []graph.EdgeID {
	if len(c.model) == 0 {
		return nil
	}
	out := make([]graph.EdgeID, 0, len(c.model))
	for e := range c.model {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Flush is the barrier: it returns once every event sent before the call
// is reflected in the snapshot of every worker that is alive.
func (c *Coordinator) Flush() {
	for _, w := range c.w {
		w.Flush()
	}
}

// coldSnap is the snapshot a cold-tier solve for one of owner's sources
// runs against: the owner's current snapshot while it is alive, a
// detached snapshot of the coordinator's model while it is not.
func (c *Coordinator) coldSnap(owner int) *engine.Snapshot {
	if w := c.w[owner]; w.Alive() {
		return w.Snapshot()
	}
	if s := c.detached.Load(); s != nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.dec.Detached(c.failedLocked(), c.bursts)
	c.detached.Store(s)
	return s
}

// Query answers synchronously, routed by ownership. A materialized
// source of a live worker is a lock-free row read of the worker's
// snapshot — its engine's in process, the decoded replica of its epochs in
// process mode; no query crosses a wire. Never-materialized sources and the
// sources of a worker that is down go through the admission-controlled
// cold tier (see coldSnap).
func (c *Coordinator) Query(src, dst graph.NodeID) engine.Result {
	owner, hot := c.route(src)
	if hot {
		if res, ok := c.w[owner].Query(src, dst); ok {
			return res
		}
	}
	return c.cold.Query(src, dst, c.coldSnap(owner))
}

// ProbeQuery is Query for the time-to-restore prober: the full
// restoration verdict of one pair under one probe edge (probe.Verdict), a
// walk of the answering snapshot's data plane — the owning engine's own in
// process, the replica's, over the provision's network, in process mode.
// When the cold tier answers instead, delivery equals routability — the
// control-plane answer is the restoration; there is no row to walk.
func (c *Coordinator) ProbeQuery(src, dst graph.NodeID, ed graph.EdgeID) probe.ProbeResult {
	owner, hot := c.route(src)
	if hot {
		if res, ok := c.w[owner].Query(src, dst); ok {
			return probe.Verdict(res, ed)
		}
	}
	snap := c.coldSnap(owner)
	routable := c.cold.Query(src, dst, snap).Route != nil
	return probe.ProbeResult{
		FailedContains: slices.Contains(snap.Failed(), ed),
		Routable:       routable,
		Delivered:      routable,
	}
}

// Submit enqueues one async query: a burst of one pair (SubmitBatch).
// Reports false when shed.
func (c *Coordinator) Submit(src, dst graph.NodeID) bool {
	return c.SubmitBatch([]rbpc.Pair{{Src: src, Dst: dst}}) == 1
}

// SubmitBatch shares a burst among its owners: one pass counts each
// slot's pairs, then every live worker with a non-zero count is handed the
// caller's slice itself and its count, and serves the pairs it owns out of
// it. Nothing is copied, allocated or queued beyond that slice; the price
// is that every worker scans the whole burst (DESIGN.md, the sharded read
// path). The pairs of non-materialized sources and of workers that are
// down divert to the cold tier, which is handed the same slice once, with
// the set of diverted slots and their count. The coordinator takes
// ownership of pairs — it is read, never written, from here on. Returns
// the number of queries accepted: each worker, and the cold tier, admits
// or sheds its part as a unit.
func (c *Coordinator) SubmitBatch(pairs []rbpc.Pair) int {
	if len(pairs) == 0 {
		return 0
	}
	var counts [MaxShards + 1]int32
	countSlots(pairs, c.slot, &counts)
	// A slot diverts when no live worker answers for it: the cold slot, and
	// the slot of every worker that is down.
	var divert slotSet
	cold := len(c.w)
	divert.add(cold)
	diverted := int(counts[cold])
	accepted := 0
	for i, w := range c.w {
		switch {
		case counts[i] == 0:
		case w.Alive():
			accepted += w.SubmitBatch(pairs, int(counts[i]))
		default:
			divert.add(i)
			diverted += int(counts[i])
		}
	}
	if diverted != 0 && c.cold.admit(coldReq{burst: pairs, c: c, divert: divert}, diverted) {
		accepted += diverted
	}
	return accepted
}

// slotSet is a set of the coordinator's slots — the workers' indices and
// the cold slot, len(w) — one bit a slot.
type slotSet [(MaxShards + 64) / 64]uint64

func (s *slotSet) add(i int) { s[i/64] |= 1 << (i % 64) }

func (s *slotSet) has(i uint8) bool { return s[i/64]&(1<<(i%64)) != 0 }

// countSlots is SubmitBatch's one pass over a burst: how many pairs fall
// to each slot. An increment through a table probe, no branch on the owner
// — the owners of a random burst are a coin flip.
//
//rbpc:hotpath
func countSlots(pairs []rbpc.Pair, slot []uint8, counts *[MaxShards + 1]int32) {
	for _, pr := range pairs {
		counts[slot[pr.Src]]++
	}
}

// AffectedPairs returns the served pairs whose primary crosses the link:
// the union of the workers' slices' lists — disjoint by ownership, so no
// pair appears twice.
func (c *Coordinator) AffectedPairs(ed graph.EdgeID) []graph.NodePair {
	var out []graph.NodePair
	for _, w := range c.w {
		out = append(out, w.AffectedPairs(ed)...)
	}
	return out
}

// RecordRestore records one observed time-to-restore (Stats.Restore).
func (c *Coordinator) RecordRestore(src graph.NodeID, d time.Duration) {
	c.restore.Record(uint64(c.owners[src]), d)
}

// Watermark returns the low epoch watermark, read off the workers'
// current snapshots: every worker has published at least this epoch. A
// worker process that is respawned starts a new epoch line at 0, so the
// watermark can fall across a reattach.
func (c *Coordinator) Watermark() uint64 {
	low := c.w[0].Snapshot().Epoch()
	for _, w := range c.w[1:] {
		low = min(low, w.Snapshot().Epoch())
	}
	return low
}

// View is a consistent cross-shard read: one snapshot per shard, all
// agreeing on the failed-set, so a caller walking pairs across shards
// never observes a torn epoch (shard A answering for failed-set X while
// shard B answers for Y).
//
//rbpc:immutable
//rbpc:epochscoped
type View struct {
	owners Owners
	snaps  []*engine.Snapshot
}

// Shards returns the number of per-shard snapshots in the view.
func (v View) Shards() int { return len(v.snaps) }

// Snap returns the snapshot serving the source.
func (v View) Snap(src graph.NodeID) *engine.Snapshot { return v.snaps[v.owners[src]] }

// Shard returns shard i's snapshot.
func (v View) Shard(i int) *engine.Snapshot { return v.snaps[i] }

// Route answers a pair from the view (nil for unroutable or cold pairs).
func (v View) Route(src, dst graph.NodeID) *engine.Route {
	return v.Snap(src).Route(src, dst)
}

// View assembles a consistent cross-shard view from the workers' current
// snapshots. Between bursts (and always after Flush) the first attempt
// succeeds; under concurrent churn it retries while the workers' writers,
// each publishing at its own pace, converge, and reports ok=false with the
// latest (possibly torn) snapshots if they fail to agree within the retry
// budget — which a correct deployment only hits mid-burst, and a worker
// that is down, a skewed worker or a dropped burst frame hits forever.
func (c *Coordinator) View() (View, bool) {
	const retries = 128
	snaps := make([]*engine.Snapshot, len(c.w))
	for attempt := 0; attempt < retries; attempt++ {
		alive := true
		for i, w := range c.w {
			snaps[i] = w.Snapshot()
			alive = alive && w.Alive()
		}
		if alive && failedSetsAgree(snaps) {
			return View{owners: c.owners, snaps: snaps}, true
		}
		runtime.Gosched()
	}
	return View{owners: c.owners, snaps: snaps}, false
}

func failedSetsAgree(snaps []*engine.Snapshot) bool {
	first := snaps[0].Failed()
	for _, s := range snaps[1:] {
		if !slices.Equal(s.Failed(), first) {
			return false
		}
	}
	return true
}

// Drain blocks until every query submitted before the call has been
// served by its worker or the cold tier.
func (c *Coordinator) Drain() {
	for _, w := range c.w {
		w.Drain()
	}
	c.cold.Drain()
}

// Close stops every worker and the cold tier.
func (c *Coordinator) Close() {
	for _, w := range c.w {
		w.Close()
	}
	c.cold.Close()
}

// Stats merges the workers' scrapes (see MergeStats) and overlays the
// coordinator's own time-to-restore histogram.
func (c *Coordinator) Stats() Stats {
	perShard := make([]engine.Stats, len(c.w))
	for i, w := range c.w {
		perShard[i] = w.Stats()
	}
	st := MergeStats(perShard, c.Watermark(), c.cold.Stats())
	st.Restore = c.restore.Summarize()
	return st
}

// MergeStats folds per-shard engine scrapes into the deployment view (see
// Stats for the rules). The serving commands lift a lone engine into the
// same shape with it.
func MergeStats(perShard []engine.Stats, epoch uint64, cold ColdStats) Stats {
	st := Stats{Shards: len(perShard), Cold: cold, PerShard: perShard}
	for _, es := range perShard {
		st.Stats = mergeEngine(st.Stats, es)
	}
	st.Epoch = epoch
	st.Queries += cold.Queries - cold.Shed
	st.Dropped += cold.Shed
	return st
}

// mergeEngine folds one shard's record into the running merge a.
func mergeEngine(a, b engine.Stats) engine.Stats {
	a.SnapshotAge = max(a.SnapshotAge, b.SnapshotAge)
	a.Queries += b.Queries
	a.Unroutable += b.Unroutable
	a.Submitted += b.Submitted
	a.Dropped += b.Dropped
	a.QueueDepth += b.QueueDepth
	a.Epochs += b.Epochs
	a.PlanCacheHits += b.PlanCacheHits
	a.PlanCacheMiss += b.PlanCacheMiss
	a.RowBytes += b.RowBytes
	a.DenseRowBytes = max(a.DenseRowBytes, b.DenseRowBytes)
	a.QueryLatency = maxSummary(a.QueryLatency, b.QueryLatency)
	a.EpochBuild = maxSummary(a.EpochBuild, b.EpochBuild)
	a.Incremental = sumIncremental(a.Incremental, b.Incremental)
	a.Scheme = b.Scheme
	a.Restore = maxSummary(a.Restore, b.Restore)
	a.LocalBuild = maxSummary(a.LocalBuild, b.LocalBuild)
	a.Stretch = mergeAcc(a.Stretch, b.Stretch)
	a.DetourHops = mergeAcc(a.DetourHops, b.DetourHops)
	a.LocalPairs += b.LocalPairs
	a.LocalUnrestorable += b.LocalUnrestorable
	a.Converged += b.Converged
	return a
}

func maxSummary(a, b metrics.Summary) metrics.Summary {
	return metrics.Summary{
		Count: a.Count + b.Count,
		P50:   max(a.P50, b.P50),
		P90:   max(a.P90, b.P90),
		P99:   max(a.P99, b.P99),
		Max:   max(a.Max, b.Max),
	}
}

// mergeAcc combines two accumulator digests: counts sum, means are
// count-weighted, maxima take the larger.
func mergeAcc(a, b metrics.AccSummary) metrics.AccSummary {
	out := metrics.AccSummary{Count: a.Count + b.Count, Max: max(a.Max, b.Max)}
	if out.Count > 0 {
		out.Mean = (a.Mean*float64(a.Count) + b.Mean*float64(b.Count)) / float64(out.Count)
	}
	return out
}

func sumIncremental(a, b engine.IncrementalStats) engine.IncrementalStats {
	a.PairsReused += b.PairsReused
	a.PairsRecomputed += b.PairsRecomputed
	a.Entering += b.Entering
	a.Leaving += b.Leaving
	a.StaleRoutes += b.StaleRoutes
	a.RepairImproved += b.RepairImproved
	a.TreesAdopted += b.TreesAdopted
	a.FullRebuilds += b.FullRebuilds
	a.AffectedNanos += b.AffectedNanos
	a.SolveNanos += b.SolveNanos
	a.ResolveNanos += b.ResolveNanos
	a.AssembleNanos += b.AssembleNanos
	return a
}
