package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
)

// ColdConfig tunes the on-demand tier answering pairs whose source has no
// materialized serving row.
type ColdConfig struct {
	// Workers is the solver-pool size (default 2). Each worker owns one
	// warm sparse solver, rebound when the failed-set changes under it.
	Workers int
	// Queue bounds the admission queue; submissions beyond it are shed
	// (default 1024). This is the admission control: cold solves are
	// orders of magnitude dearer than row lookups, and an unbounded
	// backlog would let a cold-heavy burst starve the solver pool forever.
	Queue int
	// PromoteAfter is how many times a pair must be answered under one
	// failed-set before its route is promoted into the answer cache
	// (default 3) — pairs that stay hot stop paying for solves.
	PromoteAfter int
	// CacheCap bounds the promoted-answer cache, CLOCK-evicted
	// (default 4096).
	CacheCap int
}

func (c ColdConfig) withDefaults() ColdConfig {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.Queue < 1 {
		c.Queue = 1024
	}
	if c.PromoteAfter < 1 {
		c.PromoteAfter = 3
	}
	if c.CacheCap < 1 {
		c.CacheCap = 4096
	}
	return c
}

// ColdStats is the cold tier's counter scrape.
type ColdStats struct {
	// Queries counts pairs routed to the tier; Shed counts those refused
	// by admission control; Solved counts base-set solves actually run;
	// PromotedHits counts answers served from the promoted cache;
	// Promotions counts routes promoted into it.
	Queries      int64
	Shed         int64
	Solved       int64
	PromotedHits int64
	Promotions   int64
}

// coldKey identifies a promoted answer: the pair plus the failed-set it
// was solved under (a cached route is only valid for its failed-set).
type coldKey struct {
	src, dst graph.NodeID
	failed   string
}

type coldEntry struct {
	key coldKey
	rt  *engine.Route
	ref bool
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
// queries enter a bounded queue; workers answer them by a Corollary-4
// base-set solve against the querying shard's snapshot failure view. The
// base set is edge-complete (rbpc.Provision.Servable), so a solve yields
// the optimal-cost concatenation of provisioned LSPs for every connected
// pair — the same answer, label stack included, a materialized row would
// hold — resolved the way an engine resolves it (engine.ResolveRoute).
type ColdTier struct {
	base     *paths.Explicit
	lspAt    []*mpls.LSP // the base set's LSPs by position (rbpc.Provision.BaseLSPs)
	cfg      ColdConfig
	onResult func(engine.Result)

	queue    chan coldReq
	done     chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64

	queries      atomic.Int64
	shed         atomic.Int64
	solved       atomic.Int64
	promotedHits atomic.Int64
	promotions   atomic.Int64

	mu sync.Mutex
	// hits counts answers per (pair, failed-set) toward promotion; reset
	// wholesale when it outgrows the cache to bound memory (a crude decay
	// that at worst delays a promotion by PromoteAfter hits).
	hits map[coldKey]int //rbpc:guardedby mu
	// cache/ring/hand are the promoted-answer CLOCK cache.
	cache map[coldKey]*coldEntry //rbpc:guardedby mu
	ring  []*coldEntry           //rbpc:guardedby mu
	hand  int                    //rbpc:guardedby mu
}

// NewColdTier starts the solver pool over a base set and its LSP registry
// keyed by path content, which it lays out by position once, here (a base
// path the registry lacks answers unroutable); Over hands a coordinator's
// tier the provision's own table instead. onResult receives async answers
// (nil discards them). The graph is base's own, which is what the tier
// reads; the parameter stays for its callers.
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
		cfg:      cfg,
		onResult: onResult,
		queue:    make(chan coldReq, cfg.Queue),
		done:     make(chan struct{}),
		hits:     make(map[coldKey]int),
		cache:    make(map[coldKey]*coldEntry),
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
	var solver *core.SparseSolver
	boundKey := "\x00unbound"
	for {
		select {
		case <-t.done:
			return
		case req := <-t.queue:
			t.inflight.Add(1)
			res := t.answer(&solver, &boundKey, req)
			if req.reply != nil {
				req.reply <- res
			} else if t.onResult != nil {
				t.onResult(res)
			}
			t.inflight.Add(-1)
		}
	}
}

func (t *ColdTier) answer(solver **core.SparseSolver, boundKey *string, req coldReq) engine.Result {
	key := coldKey{src: req.src, dst: req.dst, failed: req.snap.Key()}

	t.mu.Lock()
	if ent, ok := t.cache[key]; ok {
		ent.ref = true
		t.mu.Unlock()
		t.promotedHits.Add(1)
		return engine.Result{Src: req.src, Dst: req.dst, Route: ent.rt, Snap: req.snap}
	}
	t.mu.Unlock()

	// Rebind the worker's warm solver when the failed-set moved under it;
	// consecutive queries against one epoch reuse the dead-path mask.
	if *solver == nil {
		*solver = core.NewSparseSolver(t.base, req.snap.View())
	} else if *boundKey != key.failed {
		(*solver).Rebind(req.snap.View())
	}
	*boundKey = key.failed

	t.solved.Add(1)
	decs, oks := (*solver).From(req.src, []graph.NodeID{req.dst})
	if !oks[0] {
		return engine.Result{Src: req.src, Dst: req.dst, Snap: req.snap}
	}
	rt := engine.ResolveRoute(t.base, t.lspAt, decs[0])
	t.promote(key, rt)
	return engine.Result{Src: req.src, Dst: req.dst, Route: rt, Snap: req.snap}
}

// promote counts the answer toward promotion and caches it once the pair
// has proven it stays hot.
func (t *ColdTier) promote(key coldKey, rt *engine.Route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.hits) > 4*t.cfg.CacheCap {
		t.hits = make(map[coldKey]int)
	}
	t.hits[key]++
	if t.hits[key] < t.cfg.PromoteAfter {
		return
	}
	delete(t.hits, key)
	if _, ok := t.cache[key]; ok {
		return
	}
	ent := &coldEntry{key: key, rt: rt, ref: true}
	t.cache[key] = ent
	t.promotions.Add(1)
	if len(t.ring) < t.cfg.CacheCap {
		t.ring = append(t.ring, ent)
		return
	}
	for {
		victim := t.ring[t.hand]
		if victim.ref {
			victim.ref = false
			t.hand = (t.hand + 1) % len(t.ring)
			continue
		}
		delete(t.cache, victim.key)
		t.ring[t.hand] = ent
		t.hand = (t.hand + 1) % len(t.ring)
		return
	}
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
		Queries:      t.queries.Load(),
		Shed:         t.shed.Load(),
		Solved:       t.solved.Load(),
		PromotedHits: t.promotedHits.Load(),
		Promotions:   t.promotions.Load(),
	}
}
