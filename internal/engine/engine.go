package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
)

// Config tunes the engine. The zero value is usable; New fills defaults.
type Config struct {
	// Workers is the number of goroutines draining the async query queue
	// (Submit; Pool). Default 4.
	Workers int
	// QueueDepth bounds the async query queue; Submit drops (returns
	// false) when it is full. Default 4096.
	QueueDepth int
	// PlanCacheCap bounds the failed-set plan cache (0 = unbounded). Under
	// churn that revisits failed-sets — repairs walking back to pristine —
	// a cached plan's rows are published as they are: no solve, no resolve.
	PlanCacheCap int
	// FullRebuild forces every epoch's plan to be computed from scratch,
	// bypassing both the plan cache and the incremental affected-pair
	// builder. It is the reference mode of the equivalence oracle: a
	// correct incremental engine publishes snapshots bit-identical to a
	// FullRebuild engine fed the same event sequence. Production leaves
	// it false.
	FullRebuild bool
	// OnResult receives async query answers from the worker pool (Pool).
	// Must be safe for concurrent calls. Nil discards answers (the queue
	// still exercises the serving path and metrics).
	OnResult func(Result)
	// OnEpoch, when non-nil, is invoked synchronously by the writer
	// immediately after each epoch publish, with the snapshot just made
	// current. It is the conformance harness's oracle tap: every published
	// epoch can be observed exactly once, in publish order. It runs on the
	// writer goroutine — keep it brief or epoch build latency suffers.
	OnEpoch func(*Snapshot)
	// Fault injects a deliberate writer defect (see Fault). Only the
	// chaos conformance harness sets this; leave FaultNone in production.
	Fault Fault
	// Scheme selects the restoration scheme served online (see Scheme).
	// The zero value is the source-router scheme, the engine's historical
	// behavior.
	Scheme Scheme
	// Flood models link-state flood propagation delay; it only matters
	// under SchemeHybrid, where it sets each source's switchover horizon.
	// The zero value floods instantly (hybrid converges at publish).
	Flood FloodConfig
	// Clock, when non-nil, replaces the wall clock for hybrid switchover
	// gating — deterministic switchover tests inject a fake clock here.
	// Nil uses time.Now.
	Clock func() time.Time
}

// Result is one answered query. It carries its answering Snapshot, so it
// is epoch-scoped like the snapshot itself: consume it, don't store it.
//
//rbpc:epochscoped
type Result struct {
	Src, Dst graph.NodeID
	// Route is nil when the pair was unroutable in the answering epoch.
	Route *Route
	// Snap is the epoch the answer was read from; the route is guaranteed
	// consistent with exactly this epoch's failed-set.
	Snap *Snapshot
}

// Stats is a point-in-time scrape of the engine's counters, and the one
// counter record of the serving stack: shard.Stats embeds the merge of its
// shards' records. Every field is fixed-size in the encoding/binary sense,
// so the record's binary image is its wire form (a process-mode worker's
// stats frame).
type Stats struct {
	Epoch         uint64
	SnapshotAge   time.Duration
	Queries       int64
	Unroutable    int64
	Submitted     int64
	Dropped       int64
	QueueDepth    int64
	Epochs        int64
	PlanCacheHits int64
	PlanCacheMiss int64
	// RowBytes/DenseRowBytes are the current snapshot's resident routing
	// matrix bytes and the dense all-pairs equivalent (Snapshot.RowBytes).
	RowBytes      int64
	DenseRowBytes int64
	QueryLatency  metrics.Summary
	EpochBuild    metrics.Summary
	Incremental   IncrementalStats
	// Scheme is the configured restoration scheme; the fields below it are
	// only populated when it is not SchemeSource.
	Scheme Scheme
	// Restore is the distribution of observed time-to-restore: wall-clock
	// from failure injection to a delivering restored answer, as recorded
	// by the serving layer's prober via RecordRestore.
	Restore metrics.Summary
	// LocalBuild is the distribution of local-plan build+patch latency per
	// transition — the time from epoch start until affected pairs have a
	// serving local answer: it is recorded as the snapshot carrying the
	// local plan is stored.
	LocalBuild metrics.Summary
	// Stretch accumulates served-cost / shortest-distance per restorable
	// affected pair of every local plan built, in permille (1000 =
	// optimal). It is accounted after the plan is serving. The denominator
	// is the epoch oracle's distance under SchemeLocal and SchemeBypass; under
	// SchemeHybrid it is the cost of the pair's route in the phase-two
	// source plan, which is that same distance by construction.
	Stretch metrics.AccSummary
	// DetourHops accumulates the hop length of each installed ILM detour.
	DetourHops metrics.AccSummary
	// LocalPairs / LocalUnrestorable count affected pairs seen by local
	// plan builds and the crossings/pairs no surviving detour could cover.
	LocalPairs        int64
	LocalUnrestorable int64
	// Converged counts hybrid transitions whose switchover horizon has
	// fully passed on the engine's clock as of this scrape. Drain and Close
	// drop the transitions whose horizon has not, uncounted.
	Converged int64
}

// Engine serves restoration queries from immutable epoch snapshots while
// a single writer goroutine applies failure churn. See the package comment
// for the concurrency model.
type Engine struct {
	g    *graph.Graph
	base *paths.Explicit // concrete base set (solver candidates, IndicesThroughEdge scans)
	cfg  Config

	snap atomic.Pointer[Snapshot]

	// lspAt is the provision's LSP table by base-path index
	// (rbpc.Provision.BaseLSPs): what a solved component resolves through
	// (core.Component.Base) and the crossing scan of a down link walks
	// base.IndicesThroughEdge against. Shared, read-only.
	lspAt []*mpls.LSP
	// net is the engine's one network: the provision's own, which nothing
	// writes after rbpc.NewSystem, and so neither cloned nor written here.
	// Every epoch forwards over it under its own failure view and patch rows
	// (Snapshot.Send).
	net *mpls.Network

	// prim marks, by base-set index, the primaries of the pairs this engine
	// serves (rbpc.Provision.PrimaryMask); canon is their routes, one slot
	// per served pair (see canonical). Both fixed after New.
	prim  []bool
	canon canonical

	// Writer-owned state (only the writer goroutine touches these after New).
	//
	// live is the base paths' liveness under the published failed-set: one
	// failed-link count per path, moved by each transition's delta. Updated
	// once per published transition; read-only during solve fan-out. It is
	// also the affected-pair membership: a pair is in the plan exactly while
	// its primary's count is non-zero.
	live *paths.LiveIndex
	// pristine is epoch 0's oracle, kept for the engine's lifetime: every
	// later epoch's trees are repairs of its trees (epochOracle). Nil on a
	// FullRebuild engine, whose trees stay from-scratch searches so the
	// reference arm is independent of the derivation it checks.
	pristine  *spath.Oracle
	planCache *planCache
	// solvers is the writer's solve scratch, one per build worker (a
	// core.Pull and the SSSP arena a source's post-failure row is derived
	// in), reused across epochs; there are GOMAXPROCS build workers.
	solvers  []solveWorker
	pscratch *planScratch // incrementalPlan's reused working memory
	inc      incCounters
	// lscratch is the local build's reused working memory, nil under
	// SchemeSource.
	lscratch *localScratch

	// switchovers holds, on the engine's clock, when each hybrid transition
	// not yet counted in mConverged has flooded to its last reachable router
	// (settleSwitchovers).
	//
	//rbpc:guardedby switchMu
	switchovers []time.Time
	switchMu    sync.Mutex

	// canonBytes is the resident cost of the canonical matrix (top-level
	// slice + the cells of every materialized row), fixed after New.
	canonBytes int64

	// pool serves every query off snap and keeps the serving counters.
	pool *Pool

	events chan writerMsg
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	mEpochs    metrics.Counter
	mCacheHits metrics.Counter
	mCacheMiss metrics.Counter
	mBuild     metrics.Histogram

	mRestore           metrics.Histogram
	mLocalBuild        metrics.Histogram
	mStretch           metrics.Acc
	mDetourHops        metrics.Acc
	mConverged         metrics.Counter
	mLocalPairs        metrics.Counter
	mLocalUnrestorable metrics.Counter
}

// writerMsg is one burst, which the writer applies whole, or a barrier.
type writerMsg struct {
	evs   []failure.Event
	flush chan struct{} // non-nil: barrier marker, no events
}

// New builds an engine over a provisioned export and starts its writer and
// query workers. The provision must be servable (rbpc.Provision.Servable):
// the engine names LSPs, it never signals one, and it builds every scheme's
// plan — patches included, which name LSPs too — with or without a data
// plane; a provision without one (Net nil: rbpc.WriteProvision, or a slice
// that dropped it) publishes the same epochs, whose Send answers
// ErrNoDataPlane. The export's maps, LSP table, base set and graph are read,
// never written, so several engines may be built over one provision.
func New(p rbpc.Provision, cfg Config) (*Engine, error) {
	if err := p.Servable(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.Scheme > SchemeHybrid {
		return nil, fmt.Errorf("engine: unknown scheme %d", int(cfg.Scheme))
	}

	prim := p.PrimaryMask()
	e := &Engine{
		g:         p.Graph,
		base:      p.Base,
		cfg:       cfg,
		lspAt:     p.BaseLSPs,
		net:       p.Net,
		prim:      prim,
		canon:     newCanonical(p, prim),
		live:      paths.NewLiveIndex(p.Base),
		solvers:   make([]solveWorker, runtime.GOMAXPROCS(0)),
		planCache: newPlanCache(cfg.PlanCacheCap),
		pscratch:  &planScratch{downNew: make([]bool, p.Graph.Size())},
		events:    make(chan writerMsg, 256),
		done:      make(chan struct{}),
	}

	for w := range e.solvers {
		e.solvers[w] = solveWorker{pull: core.NewPull(p.Base), sp: spath.NewSolver(p.Graph.Order())}
	}

	e.canonBytes = int64(len(e.canon.at)) * 8
	for _, row := range e.canon.at {
		e.canonBytes += int64(len(row)) * canonCellBytes
	}

	// Epoch 0: the pristine snapshot.
	s0 := &Snapshot{
		epoch:    0,
		failed:   nil,
		key:      "",
		fv:       graph.FailEdges(p.Graph),
		net:      e.net,
		oracle:   spath.NewOracle(graph.FailEdges(p.Graph)),
		created:  time.Now(),
		canon:    e.canon,
		rowBytes: e.canonBytes,
		scheme:   cfg.Scheme,
		clock:    cfg.Clock,
	}
	if cfg.Scheme != SchemeSource {
		// Pristine local state: no failures, no patches, and (hybrid)
		// nothing to converge to — the epoch is trivially converged.
		s0.local = emptyPlan
		s0.srcReady = true
		e.lscratch = newLocalScratch(p.Graph)
	}
	if !cfg.FullRebuild {
		e.pristine = s0.oracle
		e.pristine.SetCap(pristineTreeCap(p.Graph.Order()))
	}
	e.snap.Store(s0)

	e.wg.Add(1)
	go e.writer()
	e.pool = NewPool([]Source{e}, make([]uint8, p.Graph.Order()), cfg)
	return e, nil
}

// pristineBudget bounds the memory the pristine oracle may hold, whatever
// the topology's size; pristineTreeCap turns it into the oracle's CLOCK cap.
// A pristine tree costs 32 B a node (20 of labels, 12 of preorder layout),
// so 237 nodes hold every root in 1.8 MB and never evict, while a
// 40 000-node graph keeps its 50 hottest roots and pays one search to
// bring an evicted one back.
const pristineBudget = 64 << 20

func pristineTreeCap(n int) int {
	return max(pristineBudget/(32*max(n, 1)), 16)
}

// epochOracle builds the distance oracle of an epoch over fv: its trees are
// repairs of the pristine oracle's (spath.Oracle.Derive), or from-scratch
// searches where there is no pristine oracle to derive from — the
// FullRebuild reference arm and a decoder's detached replica.
func epochOracle(pristine *spath.Oracle, fv *graph.FailureView) *spath.Oracle {
	if pristine == nil {
		return spath.NewOracle(fv)
	}
	return pristine.Derive(fv)
}

// canonical is the pristine routing matrix, stored as the one fact it
// holds: a served pair's pristine route is its primary LSP alone
// (rbpc.Provision.Primary). at[src][dst] is the pair's slot, -1 where it
// has no primary, and row src is nil for a source the provision does not
// serve (not materialized). routes holds one route per served primary, in
// base order, and base each one's base-set index, where the writer reads a
// pair's liveness count (incrementalPlan). Every epoch shares it.
//
//rbpc:immutable
type canonical struct {
	at     [][]int32
	routes []Route
	base   []int32
}

// canonCellBytes is what RowBytes charges for one slot of the matrix.
const canonCellBytes = 4

// newCanonical builds the canonical matrix of a provision whose served
// primaries prim marks (rbpc.Provision.PrimaryMask): the one builder of
// engine.New and NewSnapDecoder, which therefore serve the same routes with
// the same cost bits. A route's LSPs are a window of the provision's table:
// nothing is allocated per route.
//
//rbpc:ctor
func newCanonical(p rbpc.Provision, prim []bool) canonical {
	n := p.Graph.Order()
	c := canonical{at: make([][]int32, n)}
	for src, served := range p.Serves {
		if served {
			c.at[src] = make([]int32, n)
			for dst := range c.at[src] {
				c.at[src][dst] = -1
			}
		}
	}
	k := 0
	for _, ok := range prim {
		if ok {
			k++
		}
	}
	c.routes, c.base = make([]Route, 0, k), make([]int32, 0, k)
	for i, path := range p.Base.All() {
		if prim[i] {
			c.at[path.Src()][path.Dst()] = int32(len(c.routes))
			c.routes = append(c.routes, Route{LSPs: p.BaseLSPs[i : i+1 : i+1], Cost: p.Base.CostAt(int32(i))})
			c.base = append(c.base, int32(i))
		}
	}
	return c
}

// route is the pair's canonical route, nil where it has none.
//
//rbpc:hotpath
func (c *canonical) route(src, dst graph.NodeID) *Route {
	if row := c.at[src]; row != nil {
		if slot := row[dst]; slot >= 0 {
			return &c.routes[slot]
		}
	}
	return nil
}

// Snapshot returns the current serving epoch. The returned snapshot stays
// valid (immutable) even after later epochs are published.
//
//rbpc:hotpath
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Query answers synchronously from the current epoch (Pool.Query).
//
//rbpc:hotpath
func (e *Engine) Query(src, dst graph.NodeID) Result { return e.pool.Query(src, dst) }

// Submit enqueues one async query: a burst of one pair (SubmitBatch). It
// reports false, without blocking, when the burst is shed.
func (e *Engine) Submit(src, dst graph.NodeID) bool {
	return e.SubmitBatch([]rbpc.Pair{{Src: src, Dst: dst}}) == 1
}

// SubmitBatch enqueues a burst of queries as one unit (Pool.SubmitBatch):
// it returns len(pairs), or 0 — without blocking — when the burst is shed
// (the open-loop load shed).
//
//rbpc:hotpath
func (e *Engine) SubmitBatch(pairs []rbpc.Pair) int {
	return e.pool.SubmitBatch(pairs, nil, len(pairs))
}

// Fail injects a link failure: a burst of one event. The epoch including it
// is published asynchronously; use Flush to wait.
func (e *Engine) Fail(ed graph.EdgeID) { e.send([]failure.Event{{Edge: ed}}) }

// Repair injects a link repair: a burst of one event.
func (e *Engine) Repair(ed graph.EdgeID) { e.send([]failure.Event{{Repair: true, Edge: ed}}) }

// ApplyEvents injects a burst of churn events as one transition: no
// published snapshot shows some of the burst's events and not the others.
// The burst is copied, so the caller may reuse evs once the call returns.
func (e *Engine) ApplyEvents(evs []failure.Event) {
	if len(evs) > 0 {
		e.send(slices.Clone(evs))
	}
}

func (e *Engine) send(evs []failure.Event) {
	select {
	case e.events <- writerMsg{evs: evs}:
	case <-e.done:
	}
}

// Flush blocks until every event sent before the call is reflected in the
// published snapshot.
func (e *Engine) Flush() {
	ch := make(chan struct{})
	select {
	case e.events <- writerMsg{flush: ch}:
	case <-e.done:
		return
	}
	select {
	case <-ch:
	case <-e.done:
	}
}

// Drain blocks until every query submitted before the call has been served
// (Pool.Drain). Call before scraping final metrics so tail latencies of the
// residual queue are recorded; returns immediately if the engine is closed.
func (e *Engine) Drain() {
	// A drain precedes metric scrapes and shutdown: switchovers still
	// pending are dropped, not counted (the serving-side switchover reads
	// the clock per query, so dropping never changes an answer).
	e.dropSwitchovers()
	e.pool.Drain()
}

// Close stops the writer and the query workers. Queries against
// already-obtained snapshots remain valid; Engine methods must not be
// called after Close.
func (e *Engine) Close() {
	e.dropSwitchovers()
	e.closed.Do(func() { close(e.done) })
	e.wg.Wait()
	e.pool.Close()
}

// Stats scrapes the engine's counters.
func (e *Engine) Stats() Stats {
	s := e.snap.Load()
	resident, dense := s.RowBytes()
	e.settleSwitchovers()
	st := Stats{
		Epoch:         s.epoch,
		SnapshotAge:   s.Age(),
		Epochs:        e.mEpochs.Load(),
		PlanCacheHits: e.mCacheHits.Load(),
		PlanCacheMiss: e.mCacheMiss.Load(),
		RowBytes:      resident,
		DenseRowBytes: dense,
		EpochBuild:    e.mBuild.Summarize(),
		Incremental:   e.inc.snapshot(),

		Scheme:            e.cfg.Scheme,
		Restore:           e.mRestore.Summarize(),
		LocalBuild:        e.mLocalBuild.Summarize(),
		Stretch:           e.mStretch.Summarize(),
		DetourHops:        e.mDetourHops.Summarize(),
		LocalPairs:        e.mLocalPairs.Load(),
		LocalUnrestorable: e.mLocalUnrestorable.Load(),
		Converged:         e.mConverged.Load(),
	}
	e.pool.Scrape(&st)
	return st
}

// AffectedPairs returns, (src, dst)-sorted, the served pairs whose primary
// crosses the link — the pairs whose service a failure of ed interrupts
// (rbpc.AffectedPairs). It reads only what is fixed after New, so it is safe
// to call concurrently; the serving layer's time-to-restore prober uses it
// to pick the pairs to probe after injecting a failure.
func (e *Engine) AffectedPairs(ed graph.EdgeID) []graph.NodePair {
	return rbpc.AffectedPairs(e.base, e.prim, ed)
}

// RecordRestore records one observed time-to-restore: the wall-clock from
// failure injection until an affected pair's query returned a delivering
// restored answer (Stats.Restore).
func (e *Engine) RecordRestore(d time.Duration) {
	e.mRestore.Record(0, d)
}

// writer is the single mutator: it drains failure bursts and publishes
// epochs.
func (e *Engine) writer() {
	defer e.wg.Done()
	downSet := make(map[graph.EdgeID]bool)
	for {
		var first writerMsg
		select {
		case <-e.done:
			return
		case first = <-e.events:
		}
		flushes, changed := e.absorb(first, downSet)
		if changed {
			e.publish(downSet)
		}
		for _, ch := range flushes {
			close(ch)
		}
	}
}

// absorb applies msg, and every message already queued behind it, to
// downSet, a burst at a time and each burst whole, so the failed-set it
// leaves holds every event of a burst or none. It returns the flush
// barriers seen and whether the failed-set changed.
func (e *Engine) absorb(msg writerMsg, downSet map[graph.EdgeID]bool) (flushes []chan struct{}, changed bool) {
	apply := func(m writerMsg) {
		if m.flush != nil {
			flushes = append(flushes, m.flush)
			return
		}
		for _, ev := range m.evs {
			if ev.Repair {
				if downSet[ev.Edge] {
					delete(downSet, ev.Edge)
					changed = true
				}
			} else if !downSet[ev.Edge] {
				downSet[ev.Edge] = true
				changed = true
			}
		}
	}
	apply(msg)
	for {
		select {
		case m := <-e.events:
			apply(m)
		default:
			return flushes, changed
		}
	}
}

// publish builds and swaps in the epoch for the given failed-set.
func (e *Engine) publish(downSet map[graph.EdgeID]bool) {
	start := time.Now()
	prev := e.snap.Load()

	failed := make([]graph.EdgeID, 0, len(downSet))
	for ed := range downSet {
		failed = append(failed, ed)
	}
	slices.Sort(failed)
	key := failedKey(failed)
	if key == prev.key {
		return // the bursts absorbed cancelled out
	}
	shrunk := len(failed) < len(prev.failed)
	if e.cfg.Fault == FaultDropEpoch && shrunk {
		return // injected defect: repairs absorbed but never surfaced
	}

	// Transition delta against the published snapshot: the edges that just
	// went down and the ones that just came back, read off the two sorted
	// failed-sets. Everything incremental below is phrased in terms of this
	// delta, never the full failed-set.
	var newlyDown, repairedIDs []graph.EdgeID
	var repaired []graph.Edge
	for was, now := prev.failed, failed; len(was) > 0 || len(now) > 0; {
		switch {
		case len(was) == 0 || len(now) > 0 && now[0] < was[0]:
			newlyDown = append(newlyDown, now[0])
			now = now[1:]
		case len(now) == 0 || was[0] < now[0]:
			repairedIDs = append(repairedIDs, was[0])
			repaired = append(repaired, e.g.Edge(was[0]))
			was = was[1:]
		default:
			was, now = was[1:], now[1:]
		}
	}

	// Carry the base paths' liveness across the transition, and read the
	// affected-pair membership off it: a pair enters the plan when its
	// primary's count leaves zero and leaves it when the count returns
	// there. The update applies failures before repairs, so a pair whose
	// primary crosses both a new failure and a repaired link keeps a positive
	// count throughout and stays. This runs on every published transition,
	// cache hits and fault paths included, so the counts always mirror the
	// serving snapshot's failed-set when the next solve fan-out reads them.
	// entering feeds the incremental build, which walks it in (src, dst)
	// order: a link's primaries are met in that order in a base set built
	// source by source, so the sort is a linear check unless a burst failed
	// several links.
	sc := e.pscratch
	e.live.Update(newlyDown, repairedIDs, &sc.moves)
	all := e.base.All()
	entering := sc.entering[:0]
	for _, idx := range sc.moves.Broken {
		if e.prim[idx] {
			entering = append(entering, graph.NodePair{Src: all[idx].Src(), Dst: all[idx].Dst()})
		}
	}
	rbpc.SortPairs(entering)
	sc.entering = entering
	var leaving int64
	for _, idx := range sc.moves.Healed {
		if e.prim[idx] {
			leaving++
		}
	}
	e.inc.entering.Add(int64(len(entering)))
	e.inc.leaving.Add(leaving)

	// The epoch's link state: Snapshot.Send forwards under it, over the one
	// network every epoch shares. Its oracle's trees depend on the failed-set
	// alone, whatever epochs came before.
	fv := graph.FailEdges(e.g, failed...)
	oracle := epochOracle(e.pristine, fv)

	// Local restoration schemes: publish the local epoch. For SchemeLocal
	// and SchemeBypass that is the whole transition; for SchemeHybrid it is
	// phase one, and the source-plan build below publishes phase two under
	// the same patch rows — a source plan names LSPs and patches nothing.
	var snap1 *Snapshot
	if e.cfg.Scheme != SchemeSource {
		var done bool
		snap1, done = e.publishLocal(prev, start, failed, key, fv, oracle, newlyDown, repairedIDs)
		if done {
			return
		}
	}

	// The epoch's overlay is its plan's rows as they stand: the cached ones
	// on a hit, the previous epoch's with the touched sources replaced on a
	// miss, the reference's own in FullRebuild mode. The rows are also the
	// epoch's FEC tables (Snapshot.Send), so publishing them is the paper's
	// whole source-router action.
	var over []*planRow
	hit := false
	switch {
	case e.cfg.Fault == FaultStalePlanOnRepair && shrunk:
		// Injected defect: keep serving the previous failed-set's plan.
		over, hit = prev.over, true
	case e.cfg.FullRebuild:
		// Reference mode: from-scratch plan, no cache, no reuse.
		over = e.computePlan(failed).rows
		e.inc.fullRebuilds.Add(1)
	default:
		pl, ok := e.planCache.get(key)
		if !ok {
			// A repair-only burst that needed no solve counts as a cache
			// hit: the lookup was answered from existing state.
			pl, ok = e.incrementalPlan(key, prev.over, oracle, newlyDown, entering, repaired)
			e.planCache.put(pl)
		}
		over, hit = pl.rows, ok
	}
	if hit {
		e.mCacheHits.Add(0, 1)
	} else {
		e.mCacheMiss.Add(0, 1)
	}

	assembleStart := time.Now()
	epoch := prev.epoch + 1
	// Hybrid phase two carries the phase-one snapshot's local serving
	// state with srcReady set: source rows are ready, and each source
	// switches to them as its flood horizon passes (Snapshot.Route and
	// Snapshot.Send gate per read). Until then it pushes from the rows the
	// transition began with, which phase one carried.
	var scheme Scheme
	var local *plan
	var horizon []time.Duration
	var maxHorizon time.Duration
	var detected time.Time
	var clock func() time.Time
	var preOver []*planRow
	var patch *mpls.ILMOverlay
	if snap1 != nil {
		epoch = snap1.epoch + 1
		scheme = SchemeHybrid
		local = snap1.local
		horizon = snap1.horizon
		maxHorizon = snap1.maxHorizon
		detected = snap1.detected
		clock = snap1.clock
		preOver = snap1.over
		patch = snap1.patch
	}
	next := &Snapshot{
		epoch:      epoch,
		failed:     failed,
		key:        key,
		fv:         fv,
		net:        e.net,
		patch:      patch,
		oracle:     oracle,
		created:    time.Now(),
		canon:      e.canon,
		over:       over,
		rowBytes:   e.canonBytes + overlayBytes(over),
		scheme:     scheme,
		local:      local,
		horizon:    horizon,
		maxHorizon: maxHorizon,
		detected:   detected,
		clock:      clock,
		srcReady:   snap1 != nil,
		preOver:    preOver,
	}
	e.inc.assembleNs.Add(time.Since(assembleStart).Nanoseconds())
	e.snap.Store(next)
	e.mEpochs.Add(0, 1)
	e.mBuild.Record(0, time.Since(start))
	if snap1 != nil {
		e.noteSwitchover(snap1.detected, snap1.maxHorizon)
		// The source plan's cost is the post-failure shortest distance by
		// construction (cached plans included), so hybrid reads its stretch
		// denominators from it instead of rooting a tree per affected source.
		e.accountStretch(func(pr rbpc.Pair) float64 {
			if rt, _ := rowsGet(over, pr.Src, pr.Dst); rt != nil {
				return rt.Cost
			}
			return spath.Unreachable
		})
	}
	if e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(next)
	}
}

// ResolveRoute is the served form of a decomposition solved over base, the
// set lspAt belongs to (rbpc.Provision.BaseLSPs), in a Route and an LSP
// window of its own: resolve into fresh memory. The cold tier's on-demand
// answers (internal/shard), the local plan's detours and the FullRebuild
// reference are this; the writer's solve fan-out carves a row's routes
// from one block (resolveRow).
func ResolveRoute(base *paths.Explicit, lspAt []*mpls.LSP, dec core.Decomposition) *Route {
	rt := new(Route)
	if !resolve(base, lspAt, dec, make([]*mpls.LSP, len(dec.Components)), rt) {
		return nil
	}
	return rt
}

// resolve is the one resolver: it writes into rt the served form of dec,
// with lsps (len(dec.Components) long) as its LSP window, and reports
// whether the pair is routable. Component i is the LSP at its base-set
// index, and the cost is the sum, in component order, of the costs base
// stored for them — core.Decomposition.Cost over base's graph, bit for bit
// (Explicit.Add priced each path with the same function), without walking
// an edge. A component that names no base path — a bare edge, which an
// edge-complete base set never yields — or whose LSP the table lacks, like
// an empty decomposition or components that do not chain
// (mpls.CheckChain), leaves the pair unroutable: rt is not written and
// nothing is signaled for it.
//
//rbpc:hotpath
func resolve(base *paths.Explicit, lspAt []*mpls.LSP, dec core.Decomposition, lsps []*mpls.LSP, rt *Route) bool {
	var cost float64
	for i, c := range dec.Components {
		if c.Base == 0 || lspAt[c.Base-1] == nil {
			return false
		}
		lsps[i] = lspAt[c.Base-1]
		cost += base.CostAt(c.Base - 1)
	}
	if mpls.CheckChain(lsps) != nil {
		return false
	}
	*rt = Route{LSPs: lsps, Cost: cost}
	return true
}
