package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
	// (Submit). Default GOMAXPROCS-ish small constant.
	Workers int
	// QueueDepth bounds the async query queue; Submit drops (returns
	// false) when it is full. Default 4096.
	QueueDepth int
	// CoalesceWindow is how long the writer keeps absorbing further
	// failure events after the first of a burst before building the epoch.
	// Zero coalesces only events already queued (no added latency).
	CoalesceWindow time.Duration
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
	// OnResult receives async query answers from the worker pool. Must be
	// safe for concurrent calls. Nil discards answers (the queue still
	// exercises the serving path and metrics).
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

// Stats is a point-in-time scrape of the engine's counters.
type Stats struct {
	Epoch         uint64
	SnapshotAge   time.Duration
	Queries       int64
	Unroutable    int64
	Submitted     int64
	Dropped       int64
	QueueDepth    int
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
	// fully passed on the engine's clock as of this scrape; PendingTimers is
	// the number whose horizon has not (0 after Drain or Close, which drop
	// them uncounted).
	Converged     int64
	PendingTimers int
}

// Engine serves restoration queries from immutable epoch snapshots while
// a single writer goroutine applies failure churn. See the package comment
// for the concurrency model.
type Engine struct {
	g    *graph.Graph
	base *paths.Explicit // concrete base set (solver candidates, ThroughEdge scans)
	cfg  Config

	snap atomic.Pointer[Snapshot]

	// lspAt is the provision's LSP table by base-path index
	// (rbpc.Provision.BaseLSPs): what a solved component resolves through
	// (core.Component.Base) and the crossing scan of a down link walks
	// base.IndicesThroughEdge against. Shared, read-only.
	lspAt []*mpls.LSP
	// net is the engine's one network: New's clone of the provision's, never
	// cloned or written again. (Nothing writes the provision's after
	// rbpc.NewSystem either, so the clone guards nothing; it goes with
	// Network.Clone's copy-on-write flags.) Every epoch forwards over it
	// under its own failure view and patch rows (Snapshot.Send).
	net *mpls.Network

	// Writer-owned state (only the writer goroutine touches these after New).
	primaries map[rbpc.Pair]*mpls.LSP // canonical primary per provisioned pair
	pairIndex *graph.PairIndex        // failed link -> pairs whose primary crosses it
	// live is the base paths' liveness under the published failed-set: one
	// failed-link count per path, moved by each transition's delta. Updated
	// once per published transition; read-only during solve fan-out.
	live *paths.LiveIndex
	// pristine is epoch 0's oracle, kept for the engine's lifetime: every
	// later epoch's trees are repairs of its trees (epochOracle). Nil on a
	// FullRebuild engine, whose trees stay from-scratch searches so the
	// reference arm is independent of the derivation it checks.
	pristine  *spath.Oracle
	canonical [][]*Route
	// mat[src] is 1 when canonical[src] is materialized, else 0: the byte
	// serveOwned advances its gather cursor by. Fixed after New, like the
	// rows it describes.
	mat       []uint8
	planCache *planCache
	// downCount tracks, per pair, how many edges of its canonical primary
	// are currently down in the published snapshot. It is the membership
	// side of the affected-pair delta: a pair enters the plan when its
	// count leaves zero and falls back to canonical when it returns there.
	downCount map[rbpc.Pair]int
	// pulls is the writer's solve scratch, one per build worker
	// (core.Pull), reused across epochs; there are GOMAXPROCS build
	// workers.
	pulls    []*core.Pull
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
	// slice + every materialized row), fixed after New.
	canonBytes int64

	events chan writerMsg
	// queries is sharded one channel per worker so concurrent submitters
	// never serialize on a single channel lock: each Submit/SubmitBatch
	// lands on exactly one shard and each worker drains exactly one.
	queries   []chan queryReq
	submitSeq atomic.Uint64
	done      chan struct{}
	wg        sync.WaitGroup
	closed    sync.Once

	mQueries    metrics.Counter
	mUnroutable metrics.Counter
	mSubmitted  metrics.Counter
	mDropped    metrics.Counter
	mEpochs     metrics.Counter
	mCacheHits  metrics.Counter
	mCacheMiss  metrics.Counter
	mLatency    metrics.Histogram
	mBuild      metrics.Histogram

	mRestore           metrics.Histogram
	mLocalBuild        metrics.Histogram
	mStretch           metrics.Acc
	mDetourHops        metrics.Acc
	mConverged         metrics.Counter
	mLocalPairs        metrics.Counter
	mLocalUnrestorable metrics.Counter
}

type writerMsg struct {
	ev    failure.Event
	flush chan struct{} // non-nil: barrier marker, no event
}

type queryReq struct {
	src, dst graph.NodeID
	at       time.Time
	// batch, when non-nil, carries a whole burst of pairs stamped with one
	// timestamp and served from one snapshot load; src/dst are unused.
	batch []rbpc.Pair
	// owned, when non-zero, marks batch as shared with other engines
	// (SubmitOwned): only the pairs whose source this engine materializes
	// are this engine's to answer, and there are owned of them.
	owned int
	// drain, when non-nil, is a Drain barrier: the worker closes it after
	// serving everything queued ahead of it. No query is attached.
	drain chan struct{}
}

// New builds an engine over a provisioned export and starts its writer and
// query workers. The provision must be servable (rbpc.Provision.Servable):
// the engine names LSPs, it never signals one. The export's maps, LSP
// table, base set and graph are read, never written, so several engines may
// be built over one provision.
func New(p rbpc.Provision, cfg Config) (*Engine, error) {
	if err := p.Servable(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.Scheme < SchemeSource || cfg.Scheme > SchemeHybrid {
		return nil, fmt.Errorf("engine: unknown scheme %d", int(cfg.Scheme))
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4096
	}

	canonical := canonicalRows(p)
	e := &Engine{
		g:         p.Graph,
		base:      p.Base,
		cfg:       cfg,
		lspAt:     p.BaseLSPs,
		net:       p.Net.Clone(),
		primaries: p.Primaries,
		live:      paths.NewLiveIndex(p.Base),
		pulls:     make([]*core.Pull, runtime.GOMAXPROCS(0)),
		canonical: canonical,
		planCache: newPlanCache(cfg.PlanCacheCap),
		downCount: make(map[rbpc.Pair]int),
		pscratch:  &planScratch{downNew: make([]bool, p.Graph.Size())},
		events:    make(chan writerMsg, 256),
		queries:   make([]chan queryReq, cfg.Workers),
		done:      make(chan struct{}),
	}

	for w := range e.pulls {
		e.pulls[w] = core.NewPull(p.Base)
	}
	e.pairIndex = PrimaryIndex(p.Graph, p.Primaries, nil)

	e.canonBytes = int64(len(canonical)) * 8
	e.mat = make([]uint8, len(canonical))
	for src, row := range canonical {
		e.canonBytes += int64(len(row)) * 8
		if row != nil {
			e.mat[src] = 1
		}
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
		canon:    canonical,
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
	// Each worker owns one shard; per-shard depth splits QueueDepth so the
	// configured bound stays the total in-flight budget.
	depth := cfg.QueueDepth / cfg.Workers
	if depth < 1 {
		depth = 1
	}
	for w := 0; w < cfg.Workers; w++ {
		e.queries[w] = make(chan queryReq, depth)
		e.wg.Add(1)
		go e.queryWorker(uint64(w))
	}
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

// canonicalRows builds the canonical routing matrix from the provisioned
// primaries: a pair's pristine route is its primary LSP alone. Rows are
// allocated lazily from the primaries actually provisioned, so sources
// outside a shard's slice or a hot-set provision stay nil (non-materialized)
// and cost nothing.
func canonicalRows(p rbpc.Provision) [][]*Route {
	n := p.Graph.Order()
	canon := make([][]*Route, n)
	for pr, lsp := range p.Primaries {
		row := canon[pr.Src]
		if row == nil {
			row = make([]*Route, n)
			canon[pr.Src] = row
		}
		row[pr.Dst] = &Route{LSPs: []*mpls.LSP{lsp}, Stack: []mpls.Label{lsp.SelfLabel()}, Cost: lsp.Path.CostIn(p.Graph)}
	}
	return canon
}

// PrimaryIndex builds the static index failed link -> pairs whose
// primary crosses it, packed flat (CSR) so the hot affected-pair scan is
// one contiguous slice per edge. Primaries never change, so the index is
// built once; per-edge lists are (src, dst)-sorted for deterministic plan
// construction. A non-nil own (indexed by source) restricts the index to
// the sources it marks — the socket client of a remote shard
// (internal/shardrpc) indexes exactly the slice its worker's engine does.
func PrimaryIndex(g *graph.Graph, prims map[rbpc.Pair]*mpls.LSP, own []bool) *graph.PairIndex {
	lists := make(map[graph.EdgeID][]graph.NodePair)
	for pr, lsp := range prims {
		if own != nil && !own[pr.Src] {
			continue
		}
		for _, ed := range lsp.Path.Edges {
			lists[ed] = append(lists[ed], graph.NodePair{Src: pr.Src, Dst: pr.Dst})
		}
	}
	for _, prs := range lists {
		sort.Slice(prs, func(i, j int) bool {
			if prs[i].Src != prs[j].Src {
				return prs[i].Src < prs[j].Src
			}
			return prs[i].Dst < prs[j].Dst
		})
	}
	return graph.BuildPairIndex(g.Size(), lists)
}

// Snapshot returns the current serving epoch. The returned snapshot stays
// valid (immutable) even after later epochs are published.
//
//rbpc:hotpath
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Query answers synchronously from the current epoch: lock-free and
// allocation-free. The result's Route is nil for unroutable pairs.
//
//rbpc:hotpath
func (e *Engine) Query(src, dst graph.NodeID) Result {
	s := e.snap.Load()
	r := s.Route(src, dst)
	key := uint64(src)*0x9e3779b1 + uint64(dst)
	e.mQueries.Add(key, 1)
	if r == nil && src != dst {
		e.mUnroutable.Add(key, 1)
	}
	return Result{Src: src, Dst: dst, Route: r, Snap: s}
}

// Dist returns the post-failure shortest distance for the pair in the
// current epoch (+Inf if disconnected), via the epoch's oracle.
func (e *Engine) Dist(src, dst graph.NodeID) float64 {
	return e.snap.Load().oracle.Dist(src, dst)
}

// Submit enqueues an async query for the worker pool. It reports false —
// without blocking — when the target shard is full (the open-loop load
// shed). Shards are chosen round-robin so steady load spreads across all
// workers.
//
//rbpc:hotpath
func (e *Engine) Submit(src, dst graph.NodeID) bool {
	key := uint64(src)*0x9e3779b1 + uint64(dst)
	e.mSubmitted.Add(key, 1)
	shard := e.submitSeq.Add(1) % uint64(len(e.queries))
	select {
	case e.queries[shard] <- queryReq{src: src, dst: dst, at: time.Now()}:
		return true
	default:
		e.mDropped.Add(key, 1)
		return false
	}
}

// SubmitBatch enqueues a whole burst of queries with one timestamp and one
// channel operation; the receiving worker serves the entire burst from a
// single snapshot load. The engine takes ownership of pairs — the caller
// must not reuse the slice. Returns the number of queries accepted: the
// burst is admitted or shed as a unit, so the result is len(pairs) or 0.
//
//rbpc:hotpath
func (e *Engine) SubmitBatch(pairs []rbpc.Pair) int {
	return e.enqueue(queryReq{batch: pairs}, len(pairs))
}

// SubmitOwned is SubmitBatch for a burst this engine shares with others —
// the shard coordinator hands every shard engine the caller's slice itself
// instead of a copy of its part. The engine answers the pairs whose source
// it materializes (Snapshot.Materialized; a shard engine's rows are exactly
// the sources it owns) and skips the rest; owned is how many those are,
// counted by the caller, and admission, Submitted and Dropped are counted
// in it. The slice is only ever read, so engines serving it concurrently
// do not race. Returns owned or 0.
//
//rbpc:hotpath
func (e *Engine) SubmitOwned(pairs []rbpc.Pair, owned int) int {
	if owned == len(pairs) {
		return e.SubmitBatch(pairs) // nothing to skip: the plain loop serves it
	}
	return e.enqueue(queryReq{batch: pairs, owned: owned}, owned)
}

// enqueue admits or sheds one burst of n queries as a unit.
//
//rbpc:hotpath
func (e *Engine) enqueue(q queryReq, n int) int {
	if n == 0 {
		return 0
	}
	key := e.submitSeq.Add(1)
	e.mSubmitted.Add(key, int64(n))
	shard := key % uint64(len(e.queries))
	q.at = time.Now()
	select {
	case e.queries[shard] <- q:
		return n
	default:
		e.mDropped.Add(key, int64(n))
		return 0
	}
}

func (e *Engine) queryWorker(id uint64) {
	defer e.wg.Done()
	ch := e.queries[id]
	for {
		select {
		case <-e.done:
			return
		case q := <-ch:
			if q.drain != nil {
				close(q.drain)
				continue
			}
			if q.owned != 0 {
				e.serveOwned(id, q)
				continue
			}
			if q.batch != nil {
				e.serveBatch(id, q)
				continue
			}
			res := e.Query(q.src, q.dst)
			e.mLatency.Record(id, time.Since(q.at))
			if e.cfg.OnResult != nil {
				e.cfg.OnResult(res)
			}
		}
	}
}

// ServeChunk is how many pairs of a burst are looked up before any of them
// is delivered: enough for the core to keep its miss buffers full, few
// enough that the routes are still in the first-level cache when the
// consumer reads them.
const ServeChunk = 64

// Routes resolves at most ServeChunk pairs in two passes over the chunk:
// look every pair up, then read every route found. A lookup ends in a route
// that, for a random pair, is not in the cache, and a consumer that took
// the pairs one at a time — a callback with an atomic or a lock in it,
// which later loads wait behind, or a lookup whose branches mispredict —
// would take those misses one at a time, each in full: the burst would run
// at the memory latency of the moment, which on a shared host is another
// one every few minutes. Read back to back in loops that do nothing else,
// the misses of a chunk overlap, and the consumer finds the route it is
// about to read in the cache. routes[i] is pairs[i]'s route (nil: none);
// the results are how many pairs were unroutable (no route, and not a
// self-pair) and the union of the schemes that answered.
//
//rbpc:hotpath
func (s *Snapshot) Routes(pairs []rbpc.Pair, routes []*Route) (unroutable int64, via Scheme) {
	routes = routes[:len(pairs)]
	for i, pr := range pairs {
		routes[i] = s.Route(pr.Src, pr.Dst)
	}
	for i, pr := range pairs {
		if r := routes[i]; r != nil {
			via |= r.Via
		} else if pr.Src != pr.Dst {
			unroutable++
		}
	}
	return unroutable, via
}

// serveBatch answers a submitted burst: one snapshot load and one latency
// record cover every pair, so the per-query cost is a row lookup plus an
// amortized share of the channel and clock overhead. (Not hotpath-annotated:
// the optional OnResult callback is the caller's code, whose allocations no
// escape analysis of this body can see; the per-candidate work is all in
// annotated callees.) The burst
// is served ServeChunk pairs at a time (Snapshot.Routes).
func (e *Engine) serveBatch(id uint64, q queryReq) {
	s := e.snap.Load()
	var unroutable int64
	for rest := q.batch; len(rest) > 0; {
		chunk := rest[:min(len(rest), ServeChunk)]
		rest = rest[len(chunk):]
		unroutable += e.answerChunk(s, chunk)
	}
	e.settle(id, q.at, int64(len(q.batch)), unroutable)
}

// serveOwned is serveBatch for a burst shared with other engines
// (SubmitOwned): it gathers the pairs whose source this engine
// materializes into a chunk and answers each full chunk the same way. The
// gather has no branch on ownership — every pair is stored, and the cursor
// advances by the source's byte in e.mat — because the owners of a random
// burst are a coin flip, and a mispredicted skip per pair costs more than
// the answer's own lookup.
func (e *Engine) serveOwned(id uint64, q queryReq) {
	s := e.snap.Load()
	var unroutable, served int64
	var own [ServeChunk]rbpc.Pair
	mat, k := e.mat, 0
	for _, pr := range q.batch {
		own[k] = pr
		k += int(mat[pr.Src])
		if k == ServeChunk {
			unroutable += e.answerChunk(s, own[:])
			served += ServeChunk
			k = 0
		}
	}
	unroutable += e.answerChunk(s, own[:k])
	served += int64(k)
	e.settle(id, q.at, served, unroutable)
}

// answerChunk resolves at most ServeChunk pairs off one snapshot and
// delivers them; it returns how many were unroutable.
func (e *Engine) answerChunk(s *Snapshot, chunk []rbpc.Pair) int64 {
	var routes [ServeChunk]*Route
	unroutable, via := s.Routes(chunk, routes[:])
	if e.cfg.OnResult != nil {
		for i, pr := range chunk {
			e.cfg.OnResult(Result{Src: pr.Src, Dst: pr.Dst, Route: routes[i], Snap: s})
		}
	}
	runtime.KeepAlive(via)
	return unroutable
}

// settle counts one served burst: n answers, one arrival latency.
func (e *Engine) settle(id uint64, at time.Time, n, unroutable int64) {
	e.mQueries.Add(id, n)
	if unroutable != 0 {
		e.mUnroutable.Add(id, unroutable)
	}
	e.mLatency.RecordN(id, time.Since(at), n)
}

// Fail injects a link failure. The epoch including it is published
// asynchronously; use Flush to wait.
func (e *Engine) Fail(ed graph.EdgeID) { e.send(failure.Event{Edge: ed}) }

// Repair injects a link repair.
func (e *Engine) Repair(ed graph.EdgeID) { e.send(failure.Event{Repair: true, Edge: ed}) }

// ApplyEvents injects a burst of churn events; the writer coalesces them
// into as few epochs as its timing allows (often one).
func (e *Engine) ApplyEvents(evs []failure.Event) {
	for _, ev := range evs {
		e.send(ev)
	}
}

func (e *Engine) send(ev failure.Event) {
	select {
	case e.events <- writerMsg{ev: ev}:
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

// Drain blocks until every query submitted before the call has been
// served: it enqueues a barrier on each worker shard (blocking if the
// shard is full — drains never shed) and waits for all workers to pass
// it. Queries submitted concurrently with Drain may or may not be
// covered. Call before scraping final metrics so tail latencies of the
// residual queue are recorded; returns immediately if the engine is
// closed.
func (e *Engine) Drain() {
	// A drain precedes metric scrapes and shutdown: switchovers still
	// pending are dropped, not counted (the serving-side switchover reads
	// the clock per query, so dropping never changes an answer).
	e.dropSwitchovers()
	barriers := make([]chan struct{}, len(e.queries))
	for i, ch := range e.queries {
		b := make(chan struct{})
		select {
		case ch <- queryReq{drain: b}:
			barriers[i] = b
		case <-e.done:
			return
		}
	}
	for _, b := range barriers {
		select {
		case <-b:
		case <-e.done:
			return
		}
	}
}

// Close stops the writer and workers. Queries against already-obtained
// snapshots remain valid; Engine methods must not be called after Close.
func (e *Engine) Close() {
	e.dropSwitchovers()
	e.closed.Do(func() { close(e.done) })
	e.wg.Wait()
}

// queueLen sums the in-flight queue entries across all worker shards.
// Batched entries count once — it measures backlog pressure, not queries.
func (e *Engine) queueLen() int {
	n := 0
	for _, ch := range e.queries {
		n += len(ch)
	}
	return n
}

// Stats scrapes the engine's counters.
func (e *Engine) Stats() Stats {
	s := e.snap.Load()
	resident, dense := s.RowBytes()
	pending := e.settleSwitchovers()
	return Stats{
		Epoch:         s.epoch,
		SnapshotAge:   s.Age(),
		Queries:       e.mQueries.Load(),
		Unroutable:    e.mUnroutable.Load(),
		Submitted:     e.mSubmitted.Load(),
		Dropped:       e.mDropped.Load(),
		QueueDepth:    e.queueLen(),
		Epochs:        e.mEpochs.Load(),
		PlanCacheHits: e.mCacheHits.Load(),
		PlanCacheMiss: e.mCacheMiss.Load(),
		RowBytes:      resident,
		DenseRowBytes: dense,
		QueryLatency:  e.mLatency.Summarize(),
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
		PendingTimers:     pending,
	}
}

// AffectedPairs returns the provisioned pairs whose canonical primary
// crosses the link — the pairs whose service a failure of ed interrupts.
// The index is static after New, so this is safe to call concurrently;
// the serving layer's time-to-restore prober uses it to pick the pairs to
// probe after injecting a failure. Callers must not modify the result.
func (e *Engine) AffectedPairs(ed graph.EdgeID) []graph.NodePair {
	return e.pairIndex.Pairs(ed)
}

// RecordRestore records one observed time-to-restore: the wall-clock from
// failure injection until an affected pair's query returned a delivering
// restored answer (Stats.Restore).
func (e *Engine) RecordRestore(d time.Duration) {
	e.mRestore.Record(0, d)
}

// writer is the single mutator: it drains failure events, coalesces
// bursts, and publishes epochs.
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

// absorb applies msg and then keeps absorbing queued events — plus, if
// configured, events arriving within the coalesce window — into downSet.
// It returns the flush barriers seen and whether the failed-set changed.
func (e *Engine) absorb(msg writerMsg, downSet map[graph.EdgeID]bool) (flushes []chan struct{}, changed bool) {
	apply := func(m writerMsg) {
		if m.flush != nil {
			flushes = append(flushes, m.flush)
			return
		}
		if m.ev.Repair {
			if downSet[m.ev.Edge] {
				delete(downSet, m.ev.Edge)
				changed = true
			}
		} else if !downSet[m.ev.Edge] {
			downSet[m.ev.Edge] = true
			changed = true
		}
	}
	apply(msg)

	var window <-chan time.Time
	if e.cfg.CoalesceWindow > 0 {
		window = time.After(e.cfg.CoalesceWindow)
	}
	for {
		select {
		case m := <-e.events:
			apply(m)
		case <-window:
			return flushes, changed
		case <-e.done:
			return flushes, changed
		default:
			if window == nil {
				return flushes, changed
			}
			// Window still open: block for more events (or the deadline).
			select {
			case m := <-e.events:
				apply(m)
			case <-window:
				return flushes, changed
			case <-e.done:
				return flushes, changed
			}
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
		return // coalesced burst cancelled out
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

	// Affected-pair membership: bump downCount for newly-failed primary
	// edges before decrementing repaired ones, so "entering" (count leaves
	// zero) and "leaving" (count returns to zero) are unambiguous — a pair
	// crossing both a new failure and a repair keeps a positive count
	// throughout and is classified as staying. This bookkeeping runs on
	// every published transition, cache hits and fault paths included, so
	// it always mirrors the serving snapshot's failed-set. entering feeds
	// the incremental build, which walks it in (src, dst) order: each link's
	// list is sorted, so only a multi-link burst needs the sort.
	var entering []rbpc.Pair
	var leaving int64
	for _, ed := range newlyDown {
		for _, np := range e.pairIndex.Pairs(ed) {
			pr := rbpc.Pair(np)
			if e.downCount[pr] == 0 {
				entering = append(entering, pr)
			}
			e.downCount[pr]++
		}
	}
	if len(newlyDown) > 1 {
		slices.SortFunc(entering, func(a, b rbpc.Pair) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
		})
	}
	for _, ed := range repairedIDs {
		for _, np := range e.pairIndex.Pairs(ed) {
			pr := rbpc.Pair(np)
			e.downCount[pr]--
			if e.downCount[pr] == 0 {
				delete(e.downCount, pr)
				leaving++
			}
		}
	}
	e.inc.entering.Add(int64(len(entering)))
	e.inc.leaving.Add(leaving)

	// Carry the base paths' liveness across the transition. Like the
	// downCount bookkeeping above, this runs on every published epoch —
	// cache hits and fault paths included — so the counts always mirror the
	// serving snapshot's failed-set when the next solve fan-out reads them.
	e.live.Update(newlyDown, repairedIDs)

	// The epoch's link state: Snapshot.Send forwards under it, over the one
	// network every epoch shares.
	fv := graph.FailEdges(e.g, failed...)
	oracle := epochOracle(e.pristine, fv)
	if !e.cfg.FullRebuild {
		// Seed the epoch's oracle with every previous-epoch tree that
		// provably survives the transition: an adopted source tree is the
		// distance row the plan build below solves against.
		e.inc.treesAdopted.Add(int64(oracle.AdoptFrom(prev.oracle, newlyDown, repaired)))
	}

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
		canon:      e.canonical,
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
// set lspAt belongs to (rbpc.Provision.BaseLSPs): component i is the LSP at
// its base-set index, the stack is their self-labels, and the cost is the
// sum, in component order, of the costs base stored for them —
// core.Decomposition.Cost over base's graph, bit for bit (Explicit.Add
// priced each path with the same function), without walking an edge. A
// component that names no base path — a bare edge, which an edge-complete
// base set never yields — or whose LSP the table lacks, like an empty
// decomposition, leaves the pair unroutable (nil): nothing is signaled for
// it. The engine's epoch builds and the cold tier's on-demand answers
// (internal/shard) are both this.
func ResolveRoute(base *paths.Explicit, lspAt []*mpls.LSP, dec core.Decomposition) *Route {
	lsps := make([]*mpls.LSP, len(dec.Components))
	var cost float64
	for i, c := range dec.Components {
		if c.Base == 0 || lspAt[c.Base-1] == nil {
			return nil
		}
		lsps[i] = lspAt[c.Base-1]
		cost += base.CostAt(c.Base - 1)
	}
	stack, err := mpls.SelfStack(lsps)
	if err != nil {
		return nil
	}
	return &Route{LSPs: lsps, Stack: stack, Cost: cost}
}
