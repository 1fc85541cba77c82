package shard

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// ColdConfig tunes the on-demand tier answering pairs whose source has no
// materialized serving row.
type ColdConfig struct {
	// Workers is the solver-pool size (default 2). Each worker owns its
	// pull, liveness counts and SSSP scratch.
	Workers int
	// Queue bounds the admission queue; submissions beyond it are shed
	// (default 1024). This is the admission control: a cold answer is a
	// search where a hot one is a row lookup, and an unbounded backlog
	// would let a cold-heavy burst starve the solver pool forever.
	Queue int
}

func (c ColdConfig) withDefaults() ColdConfig {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.Queue < 1 {
		c.Queue = 1024
	}
	return c
}

// ColdStats is the cold tier's counter scrape.
type ColdStats struct {
	// Queries counts pairs routed to the tier; Shed counts those refused
	// by admission control; Solved counts the answers the pool computed.
	Queries int64
	Shed    int64
	Solved  int64
}

// coldReq is one queued cold-tier solve. It pins the querying shard's
// snapshot for the duration of the solve, so it is epoch-scoped: it may
// ride the admission queue but never rest anywhere longer-lived.
//
//rbpc:epochscoped
type coldReq struct {
	src, dst graph.NodeID
	snap     *engine.Snapshot
	reply    chan engine.Result // nil: async, answer goes to onResult
}

// ColdTier is the admission-controlled on-demand solver pool. Cold
// queries enter a bounded queue; workers answer them the way the writer
// answers an affected pair: the source's post-failure distance row under
// the querying shard's snapshot, then core.Pull off the arcs into the
// destination. The base set is edge-complete (rbpc.Provision.Servable), so
// the pull yields the optimal-cost concatenation of provisioned LSPs for
// every connected pair (Corollary 4) — the same answer, label stack
// included, a materialized row would hold — resolved the way an engine
// resolves it (engine.ResolveRoute).
type ColdTier struct {
	base     *paths.Explicit
	lspAt    []*mpls.LSP // the base set's LSPs by position (rbpc.Provision.BaseLSPs)
	onResult func(engine.Result)

	queue    chan coldReq
	done     chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64

	queries atomic.Int64
	shed    atomic.Int64
	solved  atomic.Int64
}

// NewColdTier starts the solver pool over an edge-complete base set and
// its LSP registry keyed by path content, which it lays out by position
// once, here (a base path the registry lacks answers unroutable); Over
// hands a coordinator's tier the provision's own table instead. onResult
// receives async answers (nil discards them). The graph is base's own,
// which is what the tier reads; the parameter stays for its callers.
func NewColdTier(_ *graph.Graph, base *paths.Explicit, lspOf map[string]*mpls.LSP, cfg ColdConfig, onResult func(engine.Result)) *ColdTier {
	lspAt := make([]*mpls.LSP, base.Len())
	for i, p := range base.All() {
		lspAt[i] = lspOf[p.Key()]
	}
	return newColdTier(base, lspAt, cfg, onResult)
}

func newColdTier(base *paths.Explicit, lspAt []*mpls.LSP, cfg ColdConfig, onResult func(engine.Result)) *ColdTier {
	cfg = cfg.withDefaults()
	t := &ColdTier{
		base:     base,
		lspAt:    lspAt,
		onResult: onResult,
		queue:    make(chan coldReq, cfg.Queue),
		done:     make(chan struct{}),
	}
	for w := 0; w < cfg.Workers; w++ {
		t.wg.Add(1)
		go t.worker()
	}
	return t
}

// Query answers a cold pair synchronously: admitted through the bounded
// queue, solved by the pool. A full queue sheds the query — the caller
// gets a nil route, exactly as an overloaded engine shard sheds a Submit.
func (t *ColdTier) Query(src, dst graph.NodeID, snap *engine.Snapshot) engine.Result {
	t.queries.Add(1)
	reply := make(chan engine.Result, 1)
	select {
	case t.queue <- coldReq{src: src, dst: dst, snap: snap, reply: reply}:
	default:
		t.shed.Add(1)
		return engine.Result{Src: src, Dst: dst, Snap: snap}
	}
	select {
	case res := <-reply:
		return res
	case <-t.done:
		return engine.Result{Src: src, Dst: dst, Snap: snap}
	}
}

// Submit enqueues a cold pair asynchronously; the answer goes to the
// coordinator's OnResult callback. Reports false when shed.
func (t *ColdTier) Submit(src, dst graph.NodeID, snap *engine.Snapshot) bool {
	t.queries.Add(1)
	select {
	case t.queue <- coldReq{src: src, dst: dst, snap: snap}:
		return true
	default:
		t.shed.Add(1)
		return false
	}
}

func (t *ColdTier) worker() {
	defer t.wg.Done()
	w := newColdWorker(t.base)
	for {
		select {
		case <-t.done:
			return
		case req := <-t.queue:
			t.inflight.Add(1)
			res := t.answer(w, req)
			if req.reply != nil {
				req.reply <- res
			} else if t.onResult != nil {
				t.onResult(res)
			}
			t.inflight.Add(-1)
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
	row    []float64
	dst    [1]graph.NodeID
	dec    [1]core.Decomposition
	ok     [1]bool
}

func newColdWorker(base *paths.Explicit) *coldWorker {
	n := base.View().Order()
	return &coldWorker{
		pull: core.NewPull(base),
		live: paths.NewLiveIndex(base),
		sp:   spath.NewSolver(n),
		row:  make([]float64, n),
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
func (t *ColdTier) answer(w *coldWorker, req coldReq) engine.Result {
	w.moveTo(req.snap.Failed())
	w.sp.Solve(req.snap.View(), req.src)
	for v := range w.row {
		w.row[v] = w.sp.Dist(graph.NodeID(v))
	}
	w.dst[0] = req.dst
	w.pull.From(req.src, w.row, w.live.Dead(), w.dst[:], w.dec[:], w.ok[:])
	t.solved.Add(1)
	if !w.ok[0] {
		return engine.Result{Src: req.src, Dst: req.dst, Snap: req.snap}
	}
	rt := engine.ResolveRoute(t.base, t.lspAt, w.dec[0])
	return engine.Result{Src: req.src, Dst: req.dst, Route: rt, Snap: req.snap}
}

// Drain waits for the queue and all in-flight solves to finish. The
// idle condition must hold on two consecutive polls to cover the window
// between a worker dequeuing a request and marking itself in-flight.
func (t *ColdTier) Drain() {
	idle := 0
	for idle < 2 {
		select {
		case <-t.done:
			return
		default:
		}
		if len(t.queue) == 0 && t.inflight.Load() == 0 {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(time.Millisecond)
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
