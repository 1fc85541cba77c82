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
// asynchronous worker pool that serves submitted bursts, over a snapshot
// source it only reads. An Engine serves through one over its own published
// snapshot; the process-mode coordinator (internal/shardrpc) serves through
// one per worker over the replica it decodes off the wire, so a query
// answers where it is asked, in either deployment, by the same code. The
// pool keeps the serving counters — Queries, Unroutable, Submitted,
// Dropped, QueueDepth and QueryLatency — of whoever owns it (Scrape).
type Pool struct {
	snap *atomic.Pointer[Snapshot]
	// mat[src] is 1 when the snapshots serve a materialized row for src,
	// else 0: the byte serveOwned advances its gather cursor by. Fixed at
	// NewPool, like the rows it describes.
	mat      []uint8
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

// queryReq is one admission unit of the query queues: a burst of pairs
// stamped with one timestamp and served from one snapshot load, or a Drain
// barrier.
type queryReq struct {
	at    time.Time
	batch []rbpc.Pair
	// owned, when non-zero, marks batch as shared with other pools
	// (SubmitOwned): only the pairs whose source this pool materializes
	// are this pool's to answer, and there are owned of them.
	owned int
	// drain, when non-nil, is a Drain barrier: the worker closes it after
	// serving everything queued ahead of it. No query is attached.
	drain chan struct{}
}

// NewPool starts cfg.Workers query workers (default 4) behind queues that
// hold cfg.QueueDepth bursts in total (default 4096), answering off
// whatever snapshot snap holds when a burst is served; snap must hold one
// before the first query. serves marks the sources whose rows the snapshots
// materialize (rbpc.Provision.Serves of the provision they serve).
// cfg.OnResult receives every asynchronous answer; the pool reads no other
// field.
func NewPool(snap *atomic.Pointer[Snapshot], serves []bool, cfg Config) *Pool {
	workers, depth := cfg.Workers, cfg.QueueDepth
	if workers < 1 {
		workers = 4
	}
	if depth < 1 {
		depth = 4096
	}
	p := &Pool{
		snap:     snap,
		mat:      make([]uint8, len(serves)),
		onResult: cfg.OnResult,
		queries:  make([]chan queryReq, workers),
		done:     make(chan struct{}),
	}
	for src, served := range serves {
		if served {
			p.mat[src] = 1
		}
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

// Query answers synchronously from the current snapshot: lock-free and
// allocation-free. The result's Route is nil for unroutable pairs.
//
//rbpc:hotpath
func (p *Pool) Query(src, dst graph.NodeID) Result {
	s := p.snap.Load()
	r := s.Route(src, dst)
	key := uint64(src)*0x9e3779b1 + uint64(dst)
	p.mQueries.Add(key, 1)
	if r == nil && src != dst {
		p.mUnroutable.Add(key, 1)
	}
	return Result{Src: src, Dst: dst, Route: r, Snap: s}
}

// SubmitBatch enqueues a whole burst of queries with one timestamp and one
// channel operation; the receiving worker serves the entire burst from a
// single snapshot load. The pool takes ownership of pairs — the caller
// must not reuse the slice. Returns the number of queries accepted: the
// burst is admitted or shed as a unit, so the result is len(pairs) or 0.
//
//rbpc:hotpath
func (p *Pool) SubmitBatch(pairs []rbpc.Pair) int {
	return p.enqueue(queryReq{batch: pairs}, len(pairs))
}

// SubmitOwned is SubmitBatch for a burst this pool shares with others —
// the shard coordinator hands every worker the caller's slice itself
// instead of a copy of its part. The pool answers the pairs whose source
// it materializes and skips the rest; owned is how many those are,
// counted by the caller, and admission, Submitted and Dropped are counted
// in it. The slice is only ever read, so pools serving it concurrently do
// not race. Returns owned or 0.
//
//rbpc:hotpath
func (p *Pool) SubmitOwned(pairs []rbpc.Pair, owned int) int {
	if owned == len(pairs) {
		return p.SubmitBatch(pairs) // nothing to skip: the plain loop serves it
	}
	return p.enqueue(queryReq{batch: pairs, owned: owned}, owned)
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
			if q.owned != 0 {
				p.serveOwned(id, q)
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
// annotated callees.) The burst is served serveChunk pairs at a time
// (Snapshot.Routes).
func (p *Pool) serveBatch(id uint64, q queryReq) {
	s := p.snap.Load()
	var unroutable int64
	for rest := q.batch; len(rest) > 0; {
		chunk := rest[:min(len(rest), serveChunk)]
		rest = rest[len(chunk):]
		unroutable += p.answerChunk(s, chunk)
	}
	p.settle(id, q.at, int64(len(q.batch)), unroutable)
}

// serveOwned is serveBatch for a burst shared with other pools
// (SubmitOwned): it gathers the pairs whose source this pool materializes
// into a chunk and answers each full chunk the same way. The gather has no
// branch on ownership — every pair is stored, and the cursor advances by
// the source's byte in p.mat — because the owners of a random burst are a
// coin flip, and a mispredicted skip per pair costs more than the answer's
// own lookup.
func (p *Pool) serveOwned(id uint64, q queryReq) {
	s := p.snap.Load()
	var unroutable, served int64
	var own [serveChunk]rbpc.Pair
	mat, k := p.mat, 0
	for _, pr := range q.batch {
		own[k] = pr
		k += int(mat[pr.Src])
		if k == serveChunk {
			unroutable += p.answerChunk(s, own[:])
			served += serveChunk
			k = 0
		}
	}
	unroutable += p.answerChunk(s, own[:k])
	served += int64(k)
	p.settle(id, q.at, served, unroutable)
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

// Scrape sets st's serving fields to the pool's counters: Queries,
// Unroutable, Submitted, Dropped, QueueDepth (the queue entries in flight
// across every worker shard — a burst counts once: it measures backlog
// pressure, not queries) and QueryLatency.
func (p *Pool) Scrape(st *Stats) {
	depth := 0
	for _, ch := range p.queries {
		depth += len(ch)
	}
	st.Queries = p.mQueries.Load()
	st.Unroutable = p.mUnroutable.Load()
	st.Submitted = p.mSubmitted.Load()
	st.Dropped = p.mDropped.Load()
	st.QueueDepth = int64(depth)
	st.QueryLatency = p.mLatency.Summarize()
}
