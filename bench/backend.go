package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/shardrpc"
)

// sink receives every asynchronous answer (engine.Config.OnResult). It is
// always installed: with a nil callback the engine "answers" a batch
// without touching the routes and the throughput figure means nothing.
// It counts answers, folds the cost bits into a checksum so the route is
// really read, keeps 1 in 1024 answers and every unroutable one for the
// oracle, and hands the foreground client its own answer.
//
// The counters are sharded through a sync.Pool, whose fast path is
// private to the calling processor: two query workers counting into one
// shared word would spend more time passing its cache line back and
// forth than reading routes, and the benchmark would measure its own
// sink.
type sink struct {
	pool     sync.Pool
	nilCount atomic.Int64

	// fgKey is the armed foreground pair (0 = none); the first answer for
	// it goes to fg. A batch answer for the same pair in the same few
	// microseconds would be taken instead (about one in 10^5 foreground
	// queries at the load phase's rate) and shortens that one sample.
	fgKey atomic.Uint64
	fg    chan engine.Result

	mu      sync.Mutex
	shards  []*sinkShard
	sampled []answer
}

type sinkShard struct {
	n        atomic.Int64
	checksum atomic.Uint64
	_        [48]byte // one cache line per shard
}

func newSink() *sink {
	s := &sink{fg: make(chan engine.Result, 1)}
	s.pool.New = func() any {
		sh := new(sinkShard)
		s.mu.Lock()
		s.shards = append(s.shards, sh)
		s.mu.Unlock()
		return sh
	}
	return s
}

func pairKey(src, dst graph.NodeID) uint64 { return uint64(src)<<32 | uint64(dst) | 1<<63 }

func (s *sink) onResult(r engine.Result) {
	sh := s.pool.Get().(*sinkShard)
	n := sh.n.Add(1)
	if r.Route != nil {
		sh.checksum.Add(math.Float64bits(r.Route.Cost))
	} else if r.Src != r.Dst {
		s.nilCount.Add(1)
		s.keep(r)
	}
	s.pool.Put(sh)
	if n&1023 == 0 {
		s.keep(r)
	}
	if k := s.fgKey.Load(); k != 0 && k == pairKey(r.Src, r.Dst) && s.fgKey.CompareAndSwap(k, 0) {
		s.fg <- r
	}
}

// answers is the number of answers delivered so far.
func (s *sink) answers() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, sh := range s.shards {
		n += sh.n.Load()
	}
	return n
}

func (s *sink) keep(r engine.Result) {
	s.mu.Lock()
	s.sampled = append(s.sampled, newAnswer(r))
	s.mu.Unlock()
}

func (s *sink) takeSampled() []answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sampled
	s.sampled = nil
	return out
}

// backend is the serving surface of one deployment shape, reached only
// through the public functions of internal/engine, internal/shard and
// internal/shardrpc.
type backend interface {
	layer() string // module whose public functions the calls below enter
	Fail(graph.EdgeID)
	Repair(graph.EdgeID)
	Flush()
	SubmitBatch([]rbpc.Pair) int
	// ask sends one foreground query through the shape's request/answer
	// path and waits for its answer: Submit → OnResult in process, a
	// synchronous Query round trip over the wire (process-mode batches
	// have no answer callback). ok is false when the query was shed.
	ask(src, dst graph.NodeID) (engine.Result, bool)
	Query(src, dst graph.NodeID) engine.Result
	// answered is the number of asynchronous answers delivered so far.
	answered() int64
	Drain()
	Close()
	Stats() shard.Stats
	AffectedPairs(graph.EdgeID) []graph.NodePair
	// restore runs the repository's prober for one injected failure.
	restore(p *eventProbe, ed graph.EdgeID, t0 time.Time)
	// snapshots returns the serving snapshot of every shard, as this
	// process sees it; owner maps a source to its shard.
	snapshots() []*engine.Snapshot
	owner(src graph.NodeID) int
}

// prober adapts a backend to probe.Backend / probe.ProbeBackend, counts
// polls, and collects restoration samples in the benchmark's own list.
type prober struct {
	be     backend
	scheme engine.Scheme
	record func(src graph.NodeID, d time.Duration) // forwards to the backend's histogram
	polls  atomic.Int64

	mu      sync.Mutex
	samples samples
}

func (p *prober) Query(src, dst graph.NodeID) engine.Result {
	p.polls.Add(1)
	return p.be.Query(src, dst)
}
func (p *prober) AffectedPairs(e graph.EdgeID) []graph.NodePair { return p.be.AffectedPairs(e) }
func (p *prober) RecordRestore(src graph.NodeID, d time.Duration) {
	p.mu.Lock()
	p.samples.addDur(d)
	p.mu.Unlock()
	p.record(src, d)
}

// eventProbe is the prober's view for one injected failure: it keeps the
// samples that failure recorded, so that a miss can be charged to its
// event and a time to its link.
type eventProbe struct {
	*prober
	times samples // written by the event's own prober goroutine only
}

func (e *eventProbe) RecordRestore(src graph.NodeID, d time.Duration) {
	e.times.addDur(d)
	e.prober.RecordRestore(src, d)
}

// probedPairs is how many pairs the prober will try for a failure of ed
// (probe.Restore samples at most four, strided over the affected list).
func probedPairs(affected int) int { return min(affected, 4) }

func askAsync(s *sink, submit func(src, dst graph.NodeID) bool, src, dst graph.NodeID) (engine.Result, bool) {
	s.fgKey.Store(pairKey(src, dst))
	if !submit(src, dst) {
		s.fgKey.Store(0)
		return engine.Result{}, false
	}
	select {
	case r := <-s.fg:
		return r, true
	case <-time.After(2 * time.Second):
		s.fgKey.Store(0)
		return engine.Result{}, false
	}
}

type engineBE struct {
	e *engine.Engine
	s *sink
}

func (b engineBE) layer() string                                 { return "engine" }
func (b engineBE) Fail(e graph.EdgeID)                           { b.e.Fail(e) }
func (b engineBE) Repair(e graph.EdgeID)                         { b.e.Repair(e) }
func (b engineBE) Flush()                                        { b.e.Flush() }
func (b engineBE) SubmitBatch(p []rbpc.Pair) int                 { return b.e.SubmitBatch(p) }
func (b engineBE) Query(s, d graph.NodeID) engine.Result         { return b.e.Query(s, d) }
func (b engineBE) answered() int64                               { return b.s.answers() }
func (b engineBE) Drain()                                        { b.e.Drain() }
func (b engineBE) Close()                                        { b.e.Close() }
func (b engineBE) AffectedPairs(e graph.EdgeID) []graph.NodePair { return b.e.AffectedPairs(e) }
func (b engineBE) snapshots() []*engine.Snapshot                 { return []*engine.Snapshot{b.e.Snapshot()} }
func (b engineBE) owner(graph.NodeID) int                        { return 0 }
func (b engineBE) ask(s, d graph.NodeID) (engine.Result, bool) {
	return askAsync(b.s, b.e.Submit, s, d)
}
func (b engineBE) restore(p *eventProbe, ed graph.EdgeID, t0 time.Time) {
	probe.Restore(p, p.scheme, ed, t0)
}
func (b engineBE) Stats() shard.Stats {
	st := b.e.Stats()
	return shard.MergeStats([]engine.Stats{st}, st.Epoch, shard.ColdStats{})
}

type shardBE struct {
	c *shard.Coordinator
	s *sink
}

func (b shardBE) layer() string                                 { return "shard" }
func (b shardBE) Fail(e graph.EdgeID)                           { b.c.Fail(e) }
func (b shardBE) Repair(e graph.EdgeID)                         { b.c.Repair(e) }
func (b shardBE) Flush()                                        { b.c.Flush() }
func (b shardBE) SubmitBatch(p []rbpc.Pair) int                 { return b.c.SubmitBatch(p) }
func (b shardBE) Query(s, d graph.NodeID) engine.Result         { return b.c.Query(s, d) }
func (b shardBE) answered() int64                               { return b.s.answers() }
func (b shardBE) Drain()                                        { b.c.Drain() }
func (b shardBE) Close()                                        { b.c.Close() }
func (b shardBE) Stats() shard.Stats                            { return b.c.Stats() }
func (b shardBE) owner(s graph.NodeID) int                      { return b.c.Owner(s) }
func (b shardBE) AffectedPairs(e graph.EdgeID) []graph.NodePair { return b.c.AffectedPairs(e) }
func (b shardBE) ask(s, d graph.NodeID) (engine.Result, bool) {
	return askAsync(b.s, b.c.Submit, s, d)
}
func (b shardBE) restore(p *eventProbe, ed graph.EdgeID, t0 time.Time) {
	probe.Restore(p, p.scheme, ed, t0)
}
func (b shardBE) snapshots() []*engine.Snapshot {
	out := make([]*engine.Snapshot, b.c.Shards())
	for i := range out {
		out[i] = b.c.Shard(i).Snapshot()
	}
	return out
}

// wireBE is the process-mode shape. stop tears down whatever serves the
// far end of the transport: the forked fleet, or the in-process workers
// behind net.Pipe that the tests use.
type wireBE struct {
	c     *shardrpc.Coordinator
	fleet *shardrpc.Fleet // nil behind pipes
	stop  func()
}

func (b wireBE) layer() string                                 { return "shardrpc" }
func (b wireBE) Fail(e graph.EdgeID)                           { b.c.Fail(e) }
func (b wireBE) Repair(e graph.EdgeID)                         { b.c.Repair(e) }
func (b wireBE) Flush()                                        { b.c.Flush() }
func (b wireBE) SubmitBatch(p []rbpc.Pair) int                 { return b.c.SubmitBatch(p) }
func (b wireBE) Query(s, d graph.NodeID) engine.Result         { return b.c.Query(s, d) }
func (b wireBE) Drain()                                        { b.c.Drain() }
func (b wireBE) Stats() shard.Stats                            { return b.c.Stats() }
func (b wireBE) owner(s graph.NodeID) int                      { return b.c.Owner(s) }
func (b wireBE) AffectedPairs(e graph.EdgeID) []graph.NodePair { return b.c.AffectedPairs(e) }
func (b wireBE) answered() int64                               { return b.c.Stats().Queries }
func (b wireBE) ask(s, d graph.NodeID) (engine.Result, bool) {
	return b.c.Query(s, d), true
}
func (b wireBE) Close() {
	b.c.Close()
	b.stop()
}
func (b wireBE) snapshots() []*engine.Snapshot {
	out := make([]*engine.Snapshot, b.c.Shards())
	for i := range out {
		out[i] = b.c.Replica(i)
	}
	return out
}

// wireProber carries the verdict computed inside the owning worker,
// whose data plane this process cannot walk.
type wireProber struct {
	*eventProbe
	c *shardrpc.Coordinator
}

func (w wireProber) ProbeQuery(src, dst graph.NodeID, ed graph.EdgeID) probe.ProbeResult {
	w.polls.Add(1)
	v := w.c.ProbeQuery(src, dst, ed)
	return probe.ProbeResult{FailedContains: v.FailedContains, Routable: v.Routable, Delivered: v.Delivered}
}

func (b wireBE) restore(p *eventProbe, ed graph.EdgeID, t0 time.Time) {
	probe.RestoreVia(wireProber{p, b.c}, p.scheme, ed, t0)
}

// Fixed conditions of every shape: two engine query workers in total,
// two shards, and 4096 queued batches in total before SubmitBatch
// refuses. The queues are deep on purpose: with every processor busy a
// runnable generator can wait a whole scheduler time slice (10 ms) for
// its turn, and a queue that drains sooner than that leaves the workers
// idle and the bulk rate measuring the scheduler.
//
// The failed-set plan cache of every engine holds one episode of the
// churn schedule (maxDown plans, beside the pristine one it always
// keeps). The repairs of an episode walk back through the failed-sets its
// failures built and are served from the cache; every failure meets a
// failed-set the cache no longer holds and is solved. With the default
// unbounded cache every transition after the first cycle would be a hit
// and the solve, the paper's subject, would not be measured at all; with
// a cache a little larger, which failures hit would follow the order the
// seed drew.
//
// The collector runs at GOGC=400 in this process and in the workers it
// forks. Every phase allocates a few hundred MB a second, and while a
// collection of the system's heap is under way the phase runs at about
// two thirds of its speed. At the default GOGC=100 the collector was
// running for half of every phase, and whether the median window or the
// median event fell inside a collection or outside one changed from run
// to run (measured at scale 0.1: the same seed gave 122 and 142 events a
// second). At 400 a collection is under way for about a tenth of a phase
// and the medians sit outside; peak_rss_mb is read under it.
const (
	numShards    = 2
	queryWorker  = 2
	queueDepth   = 4096
	planCacheCap = maxDown
	gcPercent    = 400
)

func engineConfig(def workloadDef, s *sink, workers int) engine.Config {
	return engine.Config{
		Workers:      workers,
		QueueDepth:   queueDepth * workers / queryWorker,
		OnResult:     s.onResult,
		Scheme:       def.scheme,
		PlanCacheCap: planCacheCap,
		Flood:        engine.FloodConfig{Detect: 2 * time.Millisecond, PerHop: 100 * time.Microsecond},
	}
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	topology, provision, attach, total time.Duration
	lsps                               int
}

// world is one constructed deployment.
type world struct {
	g    *graph.Graph
	prov rbpc.Provision
	be   backend
	sink *sink
	st   setupTimes
}

// build constructs the workload's deployment and answers one query; the
// elapsed time is one set-up.
func build(cfg runConfig, def workloadDef) (*world, error) {
	start := time.Now()
	w := &world{sink: newSink()}

	var fleet *shardrpc.Fleet
	if def.shape == shapeWire && !cfg.pipe {
		// Fork the workers first: they provision their own copy of the
		// system while this process provisions the coordinator's.
		if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
			return nil, err
		}
		// A relative TMPDIR keeps the fleet's socket paths short (Unix
		// socket names are capped near 108 bytes) and inside the checkout.
		os.Setenv("TMPDIR", cfg.tmpDir)
		os.Setenv("GOGC", strconv.Itoa(gcPercent))
		var err error
		fleet, err = shardrpc.NewFleet(shardrpc.WorkerOpts{
			Topology: cfg.topology, Scale: cfg.scale, Seed: cfg.topoSeed,
			Shards: numShards, MaxProcs: 1, Workers: queryWorker / numShards, Queue: queueDepth / numShards,
			PlanCacheMax: planCacheCap,
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	fail := func(err error) (*world, error) {
		if fleet != nil {
			fleet.Close()
		}
		return nil, err
	}

	t0 := time.Now()
	g, err := buildTopology(cfg)
	if err != nil {
		return fail(err)
	}
	w.g = g
	w.st.topology = time.Since(t0)
	t0 = time.Now()
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		return fail(fmt.Errorf("provision: %w", err))
	}
	w.st.provision = time.Since(t0)
	w.st.lsps = sys.Net().NumLSPs()
	w.prov = sys.Export()

	switch def.shape {
	case shapeEngine:
		e, err := engine.New(w.prov, engineConfig(def, w.sink, queryWorker))
		if err != nil {
			return nil, err
		}
		w.be = engineBE{e, w.sink}
	case shapeShard:
		c, err := shard.New(w.prov, shard.Config{Shards: numShards, Engine: engineConfig(def, w.sink, queryWorker/numShards)})
		if err != nil {
			return nil, err
		}
		w.be = shardBE{c, w.sink}
	case shapeWire:
		t0 = time.Now()
		rcfg := shardrpc.Config{Shards: numShards, DialBudget: 2 * time.Minute,
			Engine: engineConfig(def, w.sink, queryWorker/numShards)}
		stop := func() {}
		if fleet != nil {
			rcfg.Dial = fleet.Dial
			stop = fleet.Close
		} else {
			workers := make([]*shardrpc.Worker, numShards)
			for i := range workers {
				wcfg := rcfg
				wcfg.Engine.OnResult = nil // a worker's answers leave through the wire
				if workers[i], err = shardrpc.NewWorker(w.prov, i, wcfg); err != nil {
					return nil, err
				}
			}
			rcfg.Dial = func(i int) (net.Conn, error) {
				cc, wc := net.Pipe()
				go workers[i].ServeConn(wc)
				return cc, nil
			}
			stop = func() {
				for _, wk := range workers {
					wk.Close()
				}
			}
		}
		c, err := shardrpc.NewCoordinator(w.prov, rcfg)
		if err != nil {
			stop()
			return nil, fmt.Errorf("attach: %w", err)
		}
		w.st.attach = time.Since(t0)
		w.be = wireBE{c, fleet, stop}
	}
	// Set-up ends when the deployment has answered its first query.
	if r, ok := w.be.ask(0, graph.NodeID(g.Order()-1)); !ok || r.Route == nil {
		w.be.Close()
		return nil, fmt.Errorf("first query was not answered")
	}
	w.st.total = time.Since(start)
	return w, nil
}
