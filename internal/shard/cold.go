package shard

import (
	"slices"
	"sync"
	"sync/atomic"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
)

// The cold tier's pool and its admission bound. Each of the coldWorkers
// solvers drains a queue of its own, coldQueue/coldWorkers entries deep, and
// an entry is one admission unit: a synchronous Query, or the diverted part
// of one coordinator burst however many pairs it holds. The bound counts
// units, as an engine's query queue counts bursts, and a unit beyond it is
// shed whole. It is the admission control: a cold answer is a search where a
// hot one is a row lookup, and an unbounded backlog would let cold-heavy
// load starve the pool forever.
const (
	coldWorkers = 2
	coldQueue   = 1024
)

// ColdConfig is the cold tier's configuration, which has nothing to set:
// the pool and its admission bound are constants (coldWorkers, coldQueue).
// It stays a parameter of NewColdTier for that function's callers.
type ColdConfig struct{}

// ColdStats is the cold tier's counter scrape, in pairs.
type ColdStats struct {
	// Queries counts pairs routed to the tier; Shed counts those refused
	// by admission control; Solved counts the answers the pool computed.
	Queries int64
	Shed    int64
	Solved  int64
}

// coldReq is one admission unit of the cold tier: a pair pinned to the
// caller's snapshot and answered on reply (Query), the diverted part of a
// coordinator burst (burst non-nil), or a Drain barrier (drain non-nil). It
// pins snapshots for the duration of its solves, so it is epoch-scoped: it
// may ride the admission queue but never rest anywhere longer-lived.
//
//rbpc:epochscoped
type coldReq struct {
	src, dst graph.NodeID
	snap     *engine.Snapshot
	reply    chan engine.Result
	// burst is one of c's bursts, shared read-only with c's pool: the
	// pairs of it whose slot is in divert — the set the pool skips — are
	// this unit's.
	burst  []rbpc.Pair
	c      *Coordinator
	divert *engine.Slots
	// drain is closed by the worker once everything queued ahead is answered.
	drain chan struct{}
}

// ColdTier is the admission-controlled on-demand solver pool. Cold
// queries enter a bounded queue; workers answer them the way the writer
// answers an affected pair: the source's post-failure distance row under
// the querying shard's snapshot, then core.Pull off the arcs into the
// destination. The base set is edge-complete (rbpc.Provision.Servable), so
// the pull yields the optimal-cost concatenation of provisioned LSPs for
// every connected pair (Corollary 4) — the same answer, LSPs and cost
// bits, a materialized row would hold — resolved the way an engine
// resolves it (engine.ResolveRoute).
type ColdTier struct {
	base     *paths.Explicit
	lspAt    []*mpls.LSP // the base set's LSPs by position (rbpc.Provision.BaseLSPs)
	onResult func(engine.Result)

	// queues holds one admission queue per worker; units are dealt to them
	// round-robin by seq.
	queues [coldWorkers]chan coldReq
	seq    atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup

	queries atomic.Int64
	shed    atomic.Int64
	solved  atomic.Int64
}

// NewColdTier starts the solver pool over an edge-complete base set and
// its LSP registry keyed by path content, which it lays out by position
// once, here (a base path the registry lacks answers unroutable); Over
// hands a coordinator's tier the provision's own table instead. onResult
// receives the answers to coordinator bursts (nil discards them). The
// graph is base's own, which is what the tier reads, and ColdConfig sets
// nothing; both parameters stay for the function's callers.
func NewColdTier(_ *graph.Graph, base *paths.Explicit, lspOf map[string]*mpls.LSP, _ ColdConfig, onResult func(engine.Result)) *ColdTier {
	lspAt := make([]*mpls.LSP, base.Len())
	for i, p := range base.All() {
		lspAt[i] = lspOf[p.Key()]
	}
	return newColdTier(base, lspAt, onResult)
}

func newColdTier(base *paths.Explicit, lspAt []*mpls.LSP, onResult func(engine.Result)) *ColdTier {
	t := &ColdTier{
		base:     base,
		lspAt:    lspAt,
		onResult: onResult,
		done:     make(chan struct{}),
	}
	for i := range t.queues {
		t.queues[i] = make(chan coldReq, coldQueue/coldWorkers)
		t.wg.Add(1)
		go t.worker(t.queues[i])
	}
	return t
}

// admit enqueues one unit holding n pairs on the next worker's queue, or
// sheds it whole when that queue is full. Coordinator.SubmitBatch admits
// the diverted part of a burst as one unit, whose answers go to onResult.
func (t *ColdTier) admit(req coldReq, n int) bool {
	t.queries.Add(int64(n))
	select {
	case t.queues[t.seq.Add(1)%coldWorkers] <- req:
		return true
	default:
		t.shed.Add(int64(n))
		return false
	}
}

// Query answers a cold pair synchronously: admitted through the bounded
// queue, solved by the pool. A full queue sheds the query — the caller
// gets a nil route, exactly as an overloaded engine shard sheds a burst.
func (t *ColdTier) Query(src, dst graph.NodeID, snap *engine.Snapshot) engine.Result {
	reply := make(chan engine.Result, 1)
	if t.admit(coldReq{src: src, dst: dst, snap: snap, reply: reply}, 1) {
		select {
		case res := <-reply:
			return res
		case <-t.done:
		}
	}
	return engine.Result{Src: src, Dst: dst, Snap: snap}
}

func (t *ColdTier) worker(queue chan coldReq) {
	defer t.wg.Done()
	w := newColdWorker(t.base)
	for {
		select {
		case <-t.done:
			return
		case req := <-queue:
			switch {
			case req.drain != nil:
				close(req.drain)
			case req.burst != nil:
				t.serveBurst(w, req)
			default:
				req.reply <- t.answer(w, req.src, req.dst, req.snap)
			}
		}
	}
}

// serveBurst answers the diverted part of a coordinator burst, each pair
// under the snapshot the coordinator's rule picks for its owner (coldSnap).
func (t *ColdTier) serveBurst(w *coldWorker, req coldReq) {
	c := req.c
	for _, pr := range req.burst {
		if !req.divert.Has(c.slot[pr.Src]) {
			continue
		}
		res := t.answer(w, pr.Src, pr.Dst, c.coldSnap(c.Owner(pr.Src)))
		if t.onResult != nil {
			t.onResult(res)
		}
	}
}

// coldWorker is one pool worker's solve state, carried across requests and
// epochs. The distance row is rooted in the worker's own SSSP scratch, never
// in the request snapshot's oracle: an epoch oracle is uncapped, so a tree
// rooted there for a cold source would stay resident as long as the epoch,
// and its derivation (spath.Oracle.Derive) would first put the cold
// source's pristine tree in the writer's pristine oracle, whose cap is sized
// for the sources the writer serves.
type coldWorker struct {
	pull *core.Pull
	// live counts each base path's failed links under failed, the failed-set
	// it was last moved to.
	live   *paths.LiveIndex
	failed []graph.EdgeID
	sp     *spath.Solver
	dst    [1]graph.NodeID
	dec    [1]core.Decomposition
	ok     [1]bool
}

func newColdWorker(base *paths.Explicit) *coldWorker {
	return &coldWorker{
		pull: core.NewPull(base),
		live: paths.NewLiveIndex(base),
		sp:   spath.NewSolver(base.View().Order()),
	}
}

// moveTo brings the liveness counts to the failed-set failed with one
// Update. The counts are sums over links, so failing every link of the new
// set and repairing every link of the old one lands on the new set's counts:
// a link in both adds one and takes it away.
func (w *coldWorker) moveTo(failed []graph.EdgeID) {
	if slices.Equal(failed, w.failed) {
		return
	}
	w.live.Update(failed, w.failed, nil)
	w.failed = append(w.failed[:0], failed...)
}

// answer is one cold solve: the worker's liveness moved to the snapshot's
// failed-set, the source's distance row in the snapshot's view, the pull.
func (t *ColdTier) answer(w *coldWorker, src, dst graph.NodeID, snap *engine.Snapshot) engine.Result {
	w.moveTo(snap.Failed())
	w.sp.Solve(snap.View(), src)
	w.dst[0] = dst
	w.pull.From(src, w.sp.Row(), w.live.Dead(), w.dst[:], w.dec[:], w.ok[:])
	t.solved.Add(1)
	if !w.ok[0] {
		return engine.Result{Src: src, Dst: dst, Snap: snap}
	}
	rt := engine.ResolveRoute(t.base, t.lspAt, w.dec[0])
	return engine.Result{Src: src, Dst: dst, Route: rt, Snap: snap}
}

// Drain blocks until every unit admitted before the call is answered: it
// queues a barrier behind each worker's queue (waiting while that queue is
// full — a drain is never shed) and waits for every worker to reach it, as
// Engine.Drain does. Returns at once if the tier is closed.
func (t *ColdTier) Drain() {
	var barriers [coldWorkers]chan struct{}
	for i, q := range t.queues {
		barriers[i] = make(chan struct{})
		select {
		case q <- coldReq{drain: barriers[i]}:
		case <-t.done:
			return
		}
	}
	for _, b := range barriers {
		select {
		case <-b:
		case <-t.done:
			return
		}
	}
}

func (t *ColdTier) Close() {
	close(t.done)
	t.wg.Wait()
}

func (t *ColdTier) Stats() ColdStats {
	return ColdStats{
		Queries: t.queries.Load(),
		Shed:    t.shed.Load(),
		Solved:  t.solved.Load(),
	}
}
