package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine/metrics"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
)

// Pool is the query side of the serving stack: synchronous queries and the
// asynchronous worker pool that serves submitted bursts, reading src's
// pairs off src[slot[src]]. An Engine serves through one over its own
// snapshot (every slot 0), the shard coordinator through one over every
// shard's. The pool keeps the serving counters — Queries, Unroutable,
// Submitted, Dropped, QueueDepth and QueryLatency — of its owner (Scrape).
type Pool struct {
	src []Source
	// slot is fixed at NewPool. A value past the last source answers
	// nothing: bursts must skip it, and Query must not be asked for it.
	slot     []uint8
	onResult func(Result)

	// queries is sharded one channel per worker so concurrent submitters
	// never serialize on a single channel lock: each SubmitBatch lands on
	// exactly one shard and each worker drains exactly one.
	queries   []chan queryReq
	submitSeq atomic.Uint64
	done      chan struct{}
	wg        sync.WaitGroup
	closed    sync.Once

	mQueries    metrics.Counter
	mUnroutable metrics.Counter
	mSubmitted  metrics.Counter
	mDropped    metrics.Counter
	mLatency    metrics.Histogram
}

// Source is what a pool reads snapshots from: an Engine, or a shard.Worker.
type Source interface {
	Snapshot() *Snapshot
}

// Slots is a set of slot values, one bit each: the slots whose pairs a
// shared burst leaves to someone else (SubmitBatch).
type Slots [4]uint64

// Add puts slot i in the set.
func (s *Slots) Add(i int) { s[i/64] |= 1 << (i % 64) }

// Has reports whether slot i is in the set.
//
//rbpc:hotpath
func (s *Slots) Has(i uint8) bool { return s[i/64]&(1<<(i%64)) != 0 }

// queryReq is one admission unit of the query queues: a burst of pairs
// stamped with one timestamp, or a Drain barrier.
type queryReq struct {
	at    time.Time
	batch []rbpc.Pair
	// skip names the slots whose pairs are someone else's (SubmitBatch);
	// nil on a one-source pool's burst, served whole off one snapshot load.
	skip *Slots
	// drain, when non-nil, is a Drain barrier: the worker closes it after
	// serving everything queued ahead of it. No query is attached.
	drain chan struct{}
}

// NewPool starts a pool over srcs and the slot table; every source must
// hold a snapshot before the first query. It runs len(srcs) × cfg.Workers
// query workers (default 4) behind queues that hold len(srcs) ×
// cfg.QueueDepth bursts in total (default 4096): an engine's pool a source.
// cfg.OnResult receives every asynchronous answer; the pool reads no other
// field.
func NewPool(srcs []Source, slot []uint8, cfg Config) *Pool {
	workers, depth := cfg.Workers, cfg.QueueDepth
	if workers < 1 {
		workers = 4
	}
	if depth < 1 {
		depth = 4096
	}
	workers, depth = workers*len(srcs), depth*len(srcs)
	p := &Pool{
		src:      srcs,
		slot:     slot,
		onResult: cfg.OnResult,
		queries:  make([]chan queryReq, workers),
		done:     make(chan struct{}),
	}
	// Each worker owns one shard; per-shard depth splits the depth so the
	// configured bound stays the total in-flight budget.
	for w := range p.queries {
		p.queries[w] = make(chan queryReq, max(depth/workers, 1))
		p.wg.Add(1)
		go p.queryWorker(uint64(w))
	}
	return p
}

// Query answers synchronously from src's source's current snapshot:
// lock-free and allocation-free. The result's Route is nil for unroutable
// pairs.
//
//rbpc:hotpath
func (p *Pool) Query(src, dst graph.NodeID) Result {
	s := p.src[p.slot[src]].Snapshot()
	r := s.Route(src, dst)
	key := uint64(src)*0x9e3779b1 + uint64(dst)
	p.mQueries.Add(key, 1)
	if r == nil && src != dst {
		p.mUnroutable.Add(key, 1)
	}
	return Result{Src: src, Dst: dst, Route: r, Snap: s}
}

// SubmitBatch enqueues a whole burst of queries with one timestamp and one
// channel operation; the receiving worker serves it from one snapshot load
// a source. The pool takes ownership of pairs, which it only reads, so the
// slice may be shared. The pairs whose slot is in skip (which must not
// change; nil, every pair, only on a one-source pool) are someone else's; n
// counts the rest, for admission, Submitted and Dropped. Returns n or 0:
// the burst is admitted or shed as a unit.
//
//rbpc:hotpath
func (p *Pool) SubmitBatch(pairs []rbpc.Pair, skip *Slots, n int) int {
	return p.enqueue(queryReq{batch: pairs, skip: skip}, n)
}

// enqueue admits or sheds one burst of n queries as a unit.
//
//rbpc:hotpath
func (p *Pool) enqueue(q queryReq, n int) int {
	if n == 0 {
		return 0
	}
	key := p.submitSeq.Add(1)
	p.mSubmitted.Add(key, int64(n))
	shard := key % uint64(len(p.queries))
	q.at = time.Now()
	select {
	case p.queries[shard] <- q:
		return n
	default:
		p.mDropped.Add(key, int64(n))
		return 0
	}
}

func (p *Pool) queryWorker(id uint64) {
	defer p.wg.Done()
	ch := p.queries[id]
	for {
		select {
		case <-p.done:
			return
		case q := <-ch:
			if q.drain != nil {
				close(q.drain)
				continue
			}
			if q.skip != nil {
				p.serveSlots(id, q)
				continue
			}
			p.serveBatch(id, q)
		}
	}
}

// serveChunk is how many pairs of a burst are looked up before any of them
// is delivered: enough for the core to keep its miss buffers full, few
// enough that the routes are still in the first-level cache when the
// consumer reads them.
const serveChunk = 64

// Routes resolves at most serveChunk pairs in two passes over the chunk:
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
	return tally(pairs, routes)
}

// tally is the second pass of Routes: pairs[i]'s route is routes[i].
//
//rbpc:hotpath
func tally(pairs []rbpc.Pair, routes []*Route) (unroutable int64, via Scheme) {
	for i, pr := range pairs {
		if r := routes[i]; r != nil {
			via |= r.Via
		} else if pr.Src != pr.Dst {
			unroutable++
		}
	}
	return unroutable, via
}

// serveBatch answers a burst with no skipped slot off one source: one
// snapshot load and one latency record cover every pair. (Not
// hotpath-annotated: the optional OnResult callback is the caller's code,
// whose allocations no escape analysis of this body can see; the
// per-candidate work is all in annotated callees.) The burst is served
// serveChunk pairs at a time (Snapshot.Routes).
func (p *Pool) serveBatch(id uint64, q queryReq) {
	s := p.src[0].Snapshot()
	var unroutable int64
	for rest := q.batch; len(rest) > 0; {
		chunk := rest[:min(len(rest), serveChunk)]
		rest = rest[len(chunk):]
		unroutable += p.answerChunk(s, chunk)
	}
	p.settle(id, q.at, int64(len(q.batch)), unroutable)
}

// answerChunk resolves at most serveChunk pairs off one snapshot and
// delivers them; it returns how many were unroutable.
func (p *Pool) answerChunk(s *Snapshot, chunk []rbpc.Pair) int64 {
	var routes [serveChunk]*Route
	unroutable, via := s.Routes(chunk, routes[:])
	if p.onResult != nil {
		for i, pr := range chunk {
			p.onResult(Result{Src: pr.Src, Dst: pr.Dst, Route: routes[i], Snap: s})
		}
	}
	runtime.KeepAlive(via)
	return unroutable
}

// serveSlots is serveBatch for a burst with skipped slots: the pairs of the
// others are gathered, each beside its source's snapshot, into chunks. The
// gather has no branch on the slot — the cursor advances by its byte in
// keep — because the slots of a random burst are a coin flip, and a
// mispredicted skip per pair costs more than the answer's own lookup.
func (p *Pool) serveSlots(id uint64, q queryReq) {
	var snaps [256]*Snapshot
	var keep [256]uint8
	for i, src := range p.src {
		if !q.skip.Has(uint8(i)) {
			snaps[i], keep[i] = src.Snapshot(), 1
		}
	}
	var unroutable, served int64
	var own [serveChunk]rbpc.Pair
	var at [serveChunk]*Snapshot
	slot, k := p.slot, 0
	for _, pr := range q.batch {
		i := slot[pr.Src]
		own[k], at[k] = pr, snaps[i]
		k += int(keep[i])
		if k == serveChunk {
			unroutable += p.answerEach(&at, own[:])
			served += serveChunk
			k = 0
		}
	}
	unroutable += p.answerEach(&at, own[:k])
	served += int64(k)
	p.settle(id, q.at, served, unroutable)
}

// answerEach is answerChunk with a snapshot a pair: at[i] answers chunk[i].
func (p *Pool) answerEach(at *[serveChunk]*Snapshot, chunk []rbpc.Pair) int64 {
	var routes [serveChunk]*Route
	for i, pr := range chunk {
		routes[i] = at[i].Route(pr.Src, pr.Dst)
	}
	unroutable, via := tally(chunk, routes[:len(chunk)])
	if p.onResult != nil {
		for i, pr := range chunk {
			p.onResult(Result{Src: pr.Src, Dst: pr.Dst, Route: routes[i], Snap: at[i]})
		}
	}
	runtime.KeepAlive(via)
	return unroutable
}

// settle counts one served burst: n answers, one arrival latency.
func (p *Pool) settle(id uint64, at time.Time, n, unroutable int64) {
	p.mQueries.Add(id, n)
	if unroutable != 0 {
		p.mUnroutable.Add(id, unroutable)
	}
	p.mLatency.RecordN(id, time.Since(at), n)
}

// Drain blocks until every query submitted before the call has been
// served: it enqueues a barrier on each worker shard (blocking if the
// shard is full — drains never shed) and waits for all workers to pass
// it. Queries submitted concurrently with Drain may or may not be
// covered. Returns immediately once the pool is closed.
func (p *Pool) Drain() {
	barriers := make([]chan struct{}, len(p.queries))
	for i, ch := range p.queries {
		b := make(chan struct{})
		select {
		case ch <- queryReq{drain: b}:
			barriers[i] = b
		case <-p.done:
			return
		}
	}
	for _, b := range barriers {
		select {
		case <-b:
		case <-p.done:
			return
		}
	}
}

// Close stops the query workers; bursts still queued are not served.
// Idempotent.
func (p *Pool) Close() {
	p.closed.Do(func() { close(p.done) })
	p.wg.Wait()
}

// Scrape adds the pool's counters to st's serving fields — Queries,
// Unroutable, Submitted, Dropped and QueueDepth (the queue entries in
// flight across every worker shard — a burst counts once: it measures
// backlog pressure, not queries) — and sets st.QueryLatency to its own.
func (p *Pool) Scrape(st *Stats) {
	for _, ch := range p.queries {
		st.QueueDepth += int64(len(ch))
	}
	st.Queries += p.mQueries.Load()
	st.Unroutable += p.mUnroutable.Load()
	st.Submitted += p.mSubmitted.Load()
	st.Dropped += p.mDropped.Load()
	st.QueryLatency = p.mLatency.Summarize()
}
