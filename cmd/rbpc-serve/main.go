// Command rbpc-serve runs the online restoration engine under load: it
// provisions an RBPC system over a chosen topology, hands it to
// internal/engine, and drives it with an open-loop query generator while a
// failure injector walks a churn schedule. At the end it prints a latency
// and epoch report and (with -bench-dir) writes BENCH_engine.json in the
// same stage-timing format rbpc-bench emits, extended with serving
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/shardrpc"
	"rbpc/internal/topology"
)

// backend is the system under load, as the window driver and the
// time-to-restore prober see it. *shard.Coordinator is one as it stands —
// over in-process engines (-shards) and over worker processes
// (-shard-procs) alike; a lone engine needs the four methods of
// engineBackend to take the same shape.
type backend interface {
	Fail(e graph.EdgeID)
	Repair(e graph.EdgeID)
	SubmitBatch(pairs []rbpc.Pair) int
	Flush()
	// Drain blocks until every accepted query has been answered — the
	// scrape after it covers the full window, no residual queue.
	Drain()
	Close()
	// Failed is the failed-set the backend has been told of.
	Failed() []graph.EdgeID
	Stats() shard.Stats
	probe.ProbeBackend
}

type engineBackend struct{ *engine.Engine }

func (b engineBackend) Failed() []graph.EdgeID { return b.Snapshot().Failed() }

// Stats lifts the single engine's stats into the merged shape so the
// report code has one spelling.
func (b engineBackend) Stats() shard.Stats {
	st := b.Engine.Stats()
	return shard.MergeStats([]engine.Stats{st}, st.Epoch, shard.ColdStats{})
}

func (b engineBackend) RecordRestore(_ graph.NodeID, d time.Duration) { b.Engine.RecordRestore(d) }

func (b engineBackend) ProbeQuery(src, dst graph.NodeID, ed graph.EdgeID) probe.ProbeResult {
	return probe.Verdict(b.Query(src, dst), ed)
}

// engineBench is the BENCH_engine.json payload: the rbpc-bench stage
// record (name/seconds/seed/full_scale/gomaxprocs/go_version) plus the
// serving metrics this binary exists to measure.
type engineBench struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Seed      int64   `json:"seed"`
	FullScale bool    `json:"full_scale"`
	MaxProcs  int     `json:"gomaxprocs"`
	GoVersion string  `json:"go_version"`

	Topology  string  `json:"topology"`
	Nodes     int     `json:"nodes"`
	Links     int     `json:"links"`
	TargetQPS float64 `json:"target_qps"`

	Queries      int64   `json:"queries"`
	QPS          float64 `json:"qps"`
	Dropped      int64   `json:"dropped"`
	Unroutable   int64   `json:"unroutable"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	Epochs       int64   `json:"epochs"`
	BuildP50Secs float64 `json:"epoch_build_p50_seconds"`
	BuildP99Secs float64 `json:"epoch_build_p99_seconds"`
	CacheHitRate float64 `json:"plan_cache_hit_rate"`
	OnDemandLSPs int64   `json:"on_demand_lsps"`
	ProvisionSec float64 `json:"provision_seconds"`

	// Restoration-scheme telemetry: the configured scheme, the observed
	// time-to-restore distribution (failure injection → delivering
	// restored answer, the comparison's headline metric), and the local
	// plan quality counters (zero under the source scheme).
	Scheme            string  `json:"scheme"`
	RestoreSamples    int64   `json:"restore_samples"`
	RestoreP50Secs    float64 `json:"restore_p50_seconds"`
	RestoreP99Secs    float64 `json:"restore_p99_seconds"`
	RestoreMaxSecs    float64 `json:"restore_max_seconds"`
	LocalBuildP50Secs float64 `json:"local_build_p50_seconds"`
	LocalBuildP99Secs float64 `json:"local_build_p99_seconds"`
	StretchMean       float64 `json:"stretch_mean_permille"`
	DetourHopsMean    float64 `json:"detour_hops_mean"`
	LocalPairs        int64   `json:"local_pairs"`
	LocalUnrestorable int64   `json:"local_unrestorable"`
	Converged         int64   `json:"converged_transitions"`

	// Sharding telemetry: shard count (1 = single engine), provisioned hot
	// sources (0 = all), resident vs dense routing-matrix bytes, and the
	// cold tier's counters.
	Shards        int   `json:"shards"`
	HotSources    int   `json:"hot_sources"`
	PlanRowBytes  int64 `json:"plan_row_bytes"`
	DenseRowBytes int64 `json:"dense_row_bytes"`
	ColdQueries   int64 `json:"cold_queries"`
	ColdShed      int64 `json:"cold_shed"`
	ColdPromoted  int64 `json:"cold_promotions"`

	// Incremental epoch-builder telemetry: how much of each epoch was
	// reused versus recomputed, and where the build time went.
	RowsReused       int64   `json:"rows_reused"`
	RowsRecomputed   int64   `json:"rows_recomputed"`
	AffectedEntering int64   `json:"affected_entering"`
	AffectedLeaving  int64   `json:"affected_leaving"`
	StaleRoutes      int64   `json:"stale_routes"`
	RepairImproved   int64   `json:"repair_improved"`
	TreesAdopted     int64   `json:"trees_adopted"`
	StageAffectedSec float64 `json:"stage_affected_seconds"`
	StageSolveSec    float64 `json:"stage_solve_seconds"`
	StageResolveSec  float64 `json:"stage_resolve_seconds"`
	StageAssembleSec float64 `json:"stage_assemble_seconds"`

	// Sweep holds one entry per -sweep GOMAXPROCS value, each a fresh
	// engine re-running the identical window.
	Sweep []serveSweepEntry `json:"gomaxprocs_sweep,omitempty"`
	// ShardSweep holds one entry per -shard-sweep shard count, each a
	// fresh coordinator re-running the identical window.
	ShardSweep []shardSweepEntry `json:"shard_sweep,omitempty"`
	// ProcessMode holds the -shard-procs stage: the identical window
	// re-served by forked worker processes over the wire transport.
	ProcessMode *processModeBench `json:"process_mode,omitempty"`
}

// processModeBench records the process-mode serving window next to the
// in-process baseline it is gated against (qps_ratio is the acceptance
// number: process-mode must hold >= 0.8 of in-process throughput).
type processModeBench struct {
	ShardProcs     int     `json:"shard_procs"`
	QPS            float64 `json:"qps"`
	Dropped        int64   `json:"dropped"`
	Unroutable     int64   `json:"unroutable"`
	P50Seconds     float64 `json:"p50_seconds"`
	P99Seconds     float64 `json:"p99_seconds"`
	MaxSeconds     float64 `json:"max_seconds"`
	BuildP99Secs   float64 `json:"epoch_build_p99_seconds"`
	RestoreSamples int64   `json:"restore_samples"`
	RestoreP99Secs float64 `json:"restore_p99_seconds"`
	InprocQPS      float64 `json:"inproc_qps"`
	QPSRatio       float64 `json:"qps_ratio"`
	ColdQueries    int64   `json:"cold_queries"`
	WorkerRestarts int64   `json:"worker_restarts"`
	TornFrames     int64   `json:"torn_frames"`
}

// serveSweepEntry is one GOMAXPROCS point of the serving sweep: the same
// open-loop window re-run on a fresh engine at a pinned processor count.
type serveSweepEntry struct {
	MaxProcs   int     `json:"gomaxprocs"`
	QPS        float64 `json:"qps"`
	Dropped    int64   `json:"dropped"`
	Unroutable int64   `json:"unroutable"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// shardSweepEntry is one shard-count point of the shard sweep.
type shardSweepEntry struct {
	Shards       int     `json:"shards"`
	QPS          float64 `json:"qps"`
	Dropped      int64   `json:"dropped"`
	Unroutable   int64   `json:"unroutable"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	BuildP99Secs float64 `json:"epoch_build_p99_seconds"`
	PlanRowBytes int64   `json:"plan_row_bytes"`
}

// windowOpts parameterizes one measured serving window.
type windowOpts struct {
	qps          float64
	duration     time.Duration
	workers      int
	queue        int
	batch        int
	failEvery    time.Duration
	maxDown      int
	coalesce     time.Duration
	seed         int64
	shards       int // 0 = single engine
	planCacheMax int
	cold         shard.ColdConfig
	scheme       engine.Scheme
	flood        engine.FloodConfig
	// proc, when set, serves the window through this coordinator (the
	// process-mode one, its worker fleet already running) instead of
	// building an in-process backend; shards is ignored.
	proc *shard.Coordinator
}

// windowResult is the scrape of one serving window after queue drain.
type windowResult struct {
	elapsed   time.Duration
	st        shard.Stats
	linksDown int
}

// runWindow builds a fresh backend over the provisioned system and drives
// it through one measured open-loop window: a churn injector walks the
// seeded schedule while generators submit query bursts on a fixed arrival
// schedule, never waiting for answers. Returns after the residual queue
// has drained so the scrape covers every accepted query.
func runWindow(g *graph.Graph, sys *rbpc.System, o windowOpts) (windowResult, error) {
	workers := o.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ecfg := engine.Config{
		Workers:        workers,
		QueueDepth:     o.queue,
		CoalesceWindow: o.coalesce,
		PlanCacheCap:   o.planCacheMax,
		Scheme:         o.scheme,
		Flood:          o.flood,
	}
	var eng backend
	switch {
	case o.proc != nil:
		eng = o.proc
	case o.shards > 0:
		// Per-shard workers/queue: the shards together get the configured
		// budget, not o.shards times it.
		ecfg.Workers = (workers + o.shards - 1) / o.shards
		if o.queue > 0 {
			ecfg.QueueDepth = (o.queue + o.shards - 1) / o.shards
		}
		c, err := shard.New(sys.Export(), shard.Config{Shards: o.shards, Engine: ecfg, Cold: o.cold})
		if err != nil {
			return windowResult{}, fmt.Errorf("shard coordinator: %w", err)
		}
		eng = c
	default:
		e, err := engine.New(sys.Export(), ecfg)
		if err != nil {
			return windowResult{}, fmt.Errorf("engine: %w", err)
		}
		eng = engineBackend{e}
	}
	defer eng.Close()

	// Failure injector: one churn event per tick, schedule long enough to
	// outlast the window. Every failure also launches a time-to-restore
	// probe — the headline metric of the scheme comparison.
	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	var probeWG sync.WaitGroup
	if o.failEvery > 0 {
		steps := int(o.duration / o.failEvery)
		events := failure.ChurnSchedule(g, steps+1, o.maxDown, rand.New(rand.NewSource(o.seed)))
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(o.failEvery)
			defer tick.Stop()
			for _, ev := range events {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
				}
				if ev.Repair {
					eng.Repair(ev.Edge)
					continue
				}
				t0 := time.Now()
				eng.Fail(ev.Edge)
				probeWG.Add(1)
				go func(ed graph.EdgeID) {
					defer probeWG.Done()
					// The verdict of every poll is computed where the pair's
					// data plane lives, which may be another process.
					probe.RestoreVia(eng, o.scheme, ed, t0)
				}(ev.Edge)
			}
		}()
	} else {
		close(churnDone)
	}

	// Open-loop load: generators submit on a fixed arrival schedule,
	// batching catch-up when the OS timer lags, and never waiting for
	// answers. Everything due at a wakeup goes out as one SubmitBatch —
	// one timestamp and one channel operation per burst — so generator
	// overhead stays flat as qps climbs. SubmitBatch sheds whole bursts
	// when the target shard is full.
	nGens := runtime.GOMAXPROCS(0) / 2
	if nGens < 1 {
		nGens = 1
	}
	perGen := o.qps / float64(nGens)
	interval := time.Duration(float64(time.Second) / perGen)
	genDone := make(chan struct{}, nGens)
	start := time.Now()
	deadline := start.Add(o.duration)
	n := g.Order()
	for gen := 0; gen < nGens; gen++ {
		go func(seed int64) {
			defer func() { genDone <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			sent := 0
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				due := int(now.Sub(start)/interval) + 1
				for sent < due {
					take := due - sent
					if take > o.batch {
						take = o.batch
					}
					pairs := make([]rbpc.Pair, 0, take)
					for i := 0; i < take; i++ {
						src := graph.NodeID(rng.Intn(n))
						dst := graph.NodeID(rng.Intn(n))
						if src == dst {
							continue
						}
						pairs = append(pairs, rbpc.Pair{Src: src, Dst: dst})
					}
					sent += take
					// The engine owns pairs from here; the next burst
					// allocates fresh.
					eng.SubmitBatch(pairs)
				}
				next := start.Add(time.Duration(sent) * interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}(o.seed + int64(gen) + 1000)
	}
	for gen := 0; gen < nGens; gen++ {
		<-genDone
	}
	close(stopChurn)
	<-churnDone
	probeWG.Wait()
	eng.Flush()
	elapsed := time.Since(start)
	// Drain is a real barrier over every worker queue — unlike the old
	// QueueDepth poll it cannot scrape between a dequeue and the answer,
	// so the metrics cover every accepted query.
	eng.Drain()

	return windowResult{
		elapsed:   elapsed,
		st:        eng.Stats(),
		linksDown: len(eng.Failed()),
	}, nil
}

// parseProcsList parses a comma-separated GOMAXPROCS list ("1,2,4,8").
func parseProcsList(s string) ([]int, error) {
	var procs []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad GOMAXPROCS sweep value %q (want positive integers, e.g. 1,2,4,8)", f)
		}
		procs = append(procs, n)
	}
	return procs, nil
}

func main() {
	var (
		topo      = flag.String("topology", "as", "topology: as, isp, internet, or waxman")
		scale     = flag.Float64("scale", 0.1, "topology scale factor (as/internet/waxman)")
		seed      = flag.Int64("seed", 1, "deterministic seed for topology and churn")
		closure   = flag.Bool("closure", false, "provision the full subpath closure (quadratic; small topologies only)")
		qps       = flag.Float64("qps", 150_000, "target open-loop query rate")
		duration  = flag.Duration("duration", 3*time.Second, "measured serving window")
		workers   = flag.Int("workers", 0, "engine query workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 8192, "engine query queue depth (split across worker shards)")
		batch     = flag.Int("batch", 1024, "max queries per submitted burst")
		failEvery = flag.Duration("fail-every", 50*time.Millisecond, "interval between injected churn events (0 = no churn)")
		maxDown   = flag.Int("max-down", 3, "max links concurrently down during churn")
		coalesce  = flag.Duration("coalesce", time.Millisecond, "writer coalesce window for failure bursts")
		schemeStr = flag.String("scheme", "source", "restoration scheme: source, local, bypass, or hybrid")
		floodDet  = flag.Duration("flood-detect", 2*time.Millisecond, "modeled failure-detection delay before the link-state flood starts (hybrid switchover)")
		floodHop  = flag.Duration("flood-hop", 100*time.Microsecond, "modeled per-hop link-state flood propagation delay (hybrid switchover)")
		benchDir  = flag.String("bench-dir", "", "write BENCH_engine.json into this directory")
		sweep     = flag.String("sweep", "", "comma-separated GOMAXPROCS values to additionally run the serving window at (e.g. 1,2,4,8)")
		strict    = flag.Bool("strict", false, "exit non-zero if any query was dropped or answered unroutable (CI smoke gate)")

		shards     = flag.Int("shards", 0, "shard the pair space across N coordinator shards (0 = single engine)")
		shardSweep = flag.String("shard-sweep", "", "comma-separated shard counts to additionally run the window at (e.g. 1,2,4,8)")
		hotSources = flag.Int("hot-sources", 0, "provision only the first N sources (0 = all); other pairs answer on demand via the cold tier (needs -shards or -shard-procs)")
		planCache  = flag.Int("plan-cache-max", 0, "bound the per-engine failed-set plan cache to N plans, CLOCK-evicted (0 = unbounded)")

		shardProcs = flag.Int("shard-procs", 0, "additionally serve the window from N forked worker processes over the wire transport (runs the in-process window at -shards N first as the baseline)")
		workerSpec = flag.String("worker", "", "run as a shard worker process with this spec (internal; set by -shard-procs)")
		dialBudget = flag.Duration("dial-budget", 2*time.Minute, "total budget for attaching or reattaching one worker process, provisioning included")
		ackTimeout = flag.Duration("ack-timeout", 5*time.Second, "per-RPC round-trip timeout before a worker retry (then death) in process mode")
		killAfter  = flag.Duration("kill-worker-after", 0, "kill worker 0 this long into the process-mode window (crash-recovery demo; 0 = never)")

		coldWorkers = flag.Int("cold-workers", 0, "cold-tier solver pool size (0 = default)")
		coldQueue   = flag.Int("cold-queue", 0, "cold-tier admission queue depth; beyond it cold queries shed (0 = default)")
		coldCache   = flag.Int("cold-cache", 0, "cold-tier promoted-answer cache capacity (0 = default)")
		coldPromote = flag.Int("cold-promote-after", 0, "hits before a cold answer is promoted into the cache (0 = default)")
	)
	flag.Parse()
	if *workerSpec != "" {
		// Worker mode: this process is one shard of a fleet. It serves its
		// socket until the supervisor kills it.
		wo, err := shardrpc.ParseWorkerOpts(*workerSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "rbpc-serve: worker:", shardrpc.RunWorker(wo))
		os.Exit(1)
	}
	if *hotSources > 0 && *shards <= 0 && *shardProcs <= 0 {
		fmt.Fprintln(os.Stderr, "rbpc-serve: -hot-sources needs -shards or -shard-procs (the cold tier lives in the coordinator)")
		os.Exit(2)
	}
	if *shardProcs > 0 && (*shards > 0 || *shardSweep != "") {
		fmt.Fprintln(os.Stderr, "rbpc-serve: -shard-procs picks its own in-process baseline; drop -shards / -shard-sweep")
		os.Exit(2)
	}
	sch, err := engine.ParseScheme(*schemeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
		os.Exit(2)
	}

	g, err := topology.Build(*topo, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
		os.Exit(2)
	}
	fmt.Printf("topology %s: %d nodes, %d links\n", *topo, g.Order(), g.Size())
	if sch != engine.SchemeSource {
		fmt.Printf("restoration scheme: %s (flood detect %v, per-hop %v)\n", sch, *floodDet, *floodHop)
	}

	rcfg := rbpc.Config{SubpathClosure: *closure, EdgeLSPs: true}
	if *hotSources > 0 && *hotSources < g.Order() {
		// The hot set is the first N sources — deterministic, and on the
		// generated topologies node IDs carry no locality, so it behaves
		// like a uniform sample of the pair space.
		srcs := make([]graph.NodeID, *hotSources)
		for i := range srcs {
			srcs[i] = graph.NodeID(i)
		}
		rcfg.Sources = srcs
		fmt.Printf("hot set: %d of %d sources (cold pairs answer on demand)\n", *hotSources, g.Order())
	}

	fmt.Print("provisioning RBPC system... ")
	provStart := time.Now()
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-serve: provision:", err)
		os.Exit(1)
	}
	provisionTime := time.Since(provStart)
	fmt.Printf("done in %v (%d LSPs)\n", provisionTime.Round(time.Millisecond), sys.Net().NumLSPs())

	opts := windowOpts{
		qps:          *qps,
		duration:     *duration,
		workers:      *workers,
		queue:        *queue,
		batch:        *batch,
		failEvery:    *failEvery,
		maxDown:      *maxDown,
		coalesce:     *coalesce,
		seed:         *seed,
		shards:       *shards,
		planCacheMax: *planCache,
		scheme:       sch,
		flood:        engine.FloodConfig{Detect: *floodDet, PerHop: *floodHop},
		cold: shard.ColdConfig{
			Workers:      *coldWorkers,
			Queue:        *coldQueue,
			CacheCap:     *coldCache,
			PromoteAfter: *coldPromote,
		},
	}
	if *shardProcs > 0 {
		// The main window is the in-process baseline the process-mode
		// stage is measured against: same shard count, same partition.
		opts.shards = *shardProcs
	}
	res, err := runWindow(g, sys, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
		os.Exit(1)
	}
	st := res.st
	elapsed := res.elapsed
	served := st.Queries
	achieved := float64(served) / elapsed.Seconds()
	hitRate := 0.0
	if st.PlanCacheHits+st.PlanCacheMiss > 0 {
		hitRate = float64(st.PlanCacheHits) / float64(st.PlanCacheHits+st.PlanCacheMiss)
	}

	fmt.Printf("\nserved %d queries in %v (%.0f qps, target %.0f; %d dropped)\n",
		served, elapsed.Round(time.Millisecond), achieved, *qps, st.Dropped)
	fmt.Printf("query latency: p50 %v  p99 %v  max %v\n",
		st.QueryLatency.P50, st.QueryLatency.P99, st.QueryLatency.Max)
	fmt.Printf("epochs: %d published (build p50 %v, p99 %v), plan cache hit rate %.2f, %d on-demand LSPs\n",
		st.Epochs, st.EpochBuild.P50, st.EpochBuild.P99, hitRate, st.OnDemandLSPs)
	fmt.Printf("unroutable answers: %d; final epoch %d with %d links down\n",
		st.Unroutable, st.Epoch, res.linksDown)
	if st.Restore.Count > 0 {
		fmt.Printf("time-to-restore (%s): %d samples, p50 %v  p99 %v  max %v\n",
			st.Scheme, st.Restore.Count, st.Restore.P50, st.Restore.P99, st.Restore.Max)
	}
	if st.Scheme != engine.SchemeSource {
		fmt.Printf("local plans: build p50 %v p99 %v; %d affected pairs (%d unrestorable); stretch mean %.0f permille; detour hops mean %.1f max %d; %d transitions converged\n",
			st.LocalBuild.P50, st.LocalBuild.P99, st.LocalPairs, st.LocalUnrestorable,
			st.Stretch.Mean, st.DetourHops.Mean, st.DetourHops.Max, st.Converged)
	}
	inc := st.Incremental
	fmt.Printf("incremental: %d rows reused / %d recomputed (%d entering, %d leaving, %d stale, %d repair-improved), %d trees adopted\n",
		inc.PairsReused, inc.PairsRecomputed, inc.Entering, inc.Leaving, inc.StaleRoutes, inc.RepairImproved, inc.TreesAdopted)
	fmt.Printf("build stages: affected %v  solve %v  resolve %v  assemble %v\n",
		time.Duration(inc.AffectedNanos), time.Duration(inc.SolveNanos),
		time.Duration(inc.ResolveNanos), time.Duration(inc.AssembleNanos))
	if *shards > 0 {
		ratio := 0.0
		if st.RowBytes > 0 {
			ratio = float64(st.DenseRowBytes) / float64(st.RowBytes)
		}
		fmt.Printf("shards: %d; resident rows %d bytes vs dense %d (%.1fx); cold: %d queries, %d solved, %d shed, %d promotions\n",
			st.Shards, st.RowBytes, st.DenseRowBytes, ratio,
			st.Cold.Queries, st.Cold.Solved, st.Cold.Shed, st.Cold.Promotions)
	}

	// GOMAXPROCS sweep: re-run the identical window on a fresh engine per
	// processor count, restoring the ambient setting afterwards.
	var sweepRecs []serveSweepEntry
	if *sweep != "" {
		procsList, err := parseProcsList(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
			os.Exit(2)
		}
		ambient := runtime.GOMAXPROCS(0)
		for _, procs := range procsList {
			runtime.GOMAXPROCS(procs)
			sOpts := opts
			sOpts.workers = 0 // track the pinned GOMAXPROCS
			sres, err := runWindow(g, sys, sOpts)
			if err != nil {
				runtime.GOMAXPROCS(ambient)
				fmt.Fprintln(os.Stderr, "rbpc-serve: sweep:", err)
				os.Exit(1)
			}
			sQPS := float64(sres.st.Queries) / sres.elapsed.Seconds()
			sweepRecs = append(sweepRecs, serveSweepEntry{
				MaxProcs:   procs,
				QPS:        sQPS,
				Dropped:    sres.st.Dropped,
				Unroutable: sres.st.Unroutable,
				P50Seconds: sres.st.QueryLatency.P50.Seconds(),
				P99Seconds: sres.st.QueryLatency.P99.Seconds(),
			})
			fmt.Printf("sweep GOMAXPROCS=%d: %.0f qps (%d dropped, p50 %v, p99 %v)\n",
				procs, sQPS, sres.st.Dropped, sres.st.QueryLatency.P50, sres.st.QueryLatency.P99)
		}
		runtime.GOMAXPROCS(ambient)
	}

	// Shard-count sweep: the identical window on a fresh coordinator per
	// shard count (1 runs the coordinator too, isolating ring overhead).
	var shardSweepRecs []shardSweepEntry
	if *shardSweep != "" {
		counts, err := parseProcsList(*shardSweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve:", err)
			os.Exit(2)
		}
		for _, count := range counts {
			sOpts := opts
			sOpts.shards = count
			sres, err := runWindow(g, sys, sOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rbpc-serve: shard sweep:", err)
				os.Exit(1)
			}
			sQPS := float64(sres.st.Queries) / sres.elapsed.Seconds()
			shardSweepRecs = append(shardSweepRecs, shardSweepEntry{
				Shards:       count,
				QPS:          sQPS,
				Dropped:      sres.st.Dropped,
				Unroutable:   sres.st.Unroutable,
				P50Seconds:   sres.st.QueryLatency.P50.Seconds(),
				P99Seconds:   sres.st.QueryLatency.P99.Seconds(),
				BuildP99Secs: sres.st.EpochBuild.P99.Seconds(),
				PlanRowBytes: sres.st.RowBytes,
			})
			fmt.Printf("sweep shards=%d: %.0f qps (%d dropped, p50 %v, p99 %v, build p99 %v)\n",
				count, sQPS, sres.st.Dropped, sres.st.QueryLatency.P50,
				sres.st.QueryLatency.P99, sres.st.EpochBuild.P99)
		}
	}

	// Process mode: fork the worker fleet (this same binary, -worker),
	// attach the wire coordinator, and re-run the identical window with
	// every query a round trip over the Unix-socket transport.
	var procRec *processModeBench
	var procStats shard.Stats
	if *shardProcs > 0 {
		effWorkers := *workers
		if effWorkers < 1 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		// Per-process budgets: the fleet together gets the machine's
		// worker/queue budget, mirroring the in-process per-shard split —
		// each worker process is also pinned to its share of the CPUs so
		// the baseline comparison is one machine vs the same machine.
		per := (effWorkers + *shardProcs - 1) / *shardProcs
		perQueue := 0
		if *queue > 0 {
			perQueue = (*queue + *shardProcs - 1) / *shardProcs
		}
		wo := shardrpc.WorkerOpts{
			Topology:     *topo,
			Scale:        *scale,
			Seed:         *seed,
			Closure:      *closure,
			HotSources:   *hotSources,
			Shards:       *shardProcs,
			MaxProcs:     per,
			Workers:      per,
			Queue:        perQueue,
			Coalesce:     *coalesce,
			PlanCacheMax: *planCache,
		}
		fmt.Printf("\nforking %d worker processes (GOMAXPROCS %d each)... ", *shardProcs, per)
		var coordPtr atomic.Pointer[shardrpc.Coordinator]
		fleet, err := shardrpc.NewFleet(wo, func(i int) {
			if c := coordPtr.Load(); c != nil {
				if err := c.Reattach(i); err != nil {
					fmt.Fprintf(os.Stderr, "rbpc-serve: reattach worker %d: %v\n", i, err)
				}
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve: fleet:", err)
			os.Exit(1)
		}
		defer fleet.Close()
		attachStart := time.Now()
		coord, err := shardrpc.NewCoordinator(sys.Export(), shardrpc.Config{
			Shards:     *shardProcs,
			Cold:       opts.cold,
			Dial:       fleet.Dial,
			DialBudget: *dialBudget,
			AckTimeout: *ackTimeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve: coordinator:", err)
			os.Exit(1)
		}
		coordPtr.Store(coord)
		fmt.Printf("attached in %v\n", time.Since(attachStart).Round(time.Millisecond))
		if *killAfter > 0 {
			time.AfterFunc(*killAfter, func() {
				fmt.Printf("killing worker 0 (crash-recovery demo)\n")
				if err := fleet.Kill(0); err != nil {
					fmt.Fprintln(os.Stderr, "rbpc-serve: kill worker 0:", err)
				}
			})
		}
		pOpts := opts
		pOpts.shards = 0
		pOpts.proc = coord.Coordinator
		pres, err := runWindow(g, sys, pOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve: process window:", err)
			os.Exit(1)
		}
		procStats = pres.st
		pQPS := float64(pres.st.Queries) / pres.elapsed.Seconds()
		ratio := 0.0
		if achieved > 0 {
			ratio = pQPS / achieved
		}
		fmt.Printf("process mode: %.0f qps over the wire vs %.0f in-process (%.2fx; %d dropped, p50 %v, p99 %v, build p99 %v)\n",
			pQPS, achieved, ratio, pres.st.Dropped,
			pres.st.QueryLatency.P50, pres.st.QueryLatency.P99, pres.st.EpochBuild.P99)
		fmt.Printf("process mode: %d cold queries, %d worker restarts, %d torn frames\n",
			pres.st.Cold.Queries, fleet.Restarts(), coord.Torn())
		if pres.st.Restore.Count > 0 {
			fmt.Printf("process mode time-to-restore: %d samples, p50 %v  p99 %v  max %v\n",
				pres.st.Restore.Count, pres.st.Restore.P50, pres.st.Restore.P99, pres.st.Restore.Max)
		}
		procRec = &processModeBench{
			ShardProcs:     *shardProcs,
			QPS:            pQPS,
			Dropped:        pres.st.Dropped,
			Unroutable:     pres.st.Unroutable,
			P50Seconds:     pres.st.QueryLatency.P50.Seconds(),
			P99Seconds:     pres.st.QueryLatency.P99.Seconds(),
			MaxSeconds:     pres.st.QueryLatency.Max.Seconds(),
			BuildP99Secs:   pres.st.EpochBuild.P99.Seconds(),
			RestoreSamples: pres.st.Restore.Count,
			RestoreP99Secs: pres.st.Restore.P99.Seconds(),
			InprocQPS:      achieved,
			QPSRatio:       ratio,
			ColdQueries:    pres.st.Cold.Queries,
			WorkerRestarts: fleet.Restarts(),
			TornFrames:     coord.Torn(),
		}
	}

	if *benchDir != "" {
		rec := engineBench{
			Name:      "engine",
			Seconds:   elapsed.Seconds(),
			Seed:      *seed,
			FullScale: *scale >= 1.0,
			MaxProcs:  runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(),

			Topology:  *topo,
			Nodes:     g.Order(),
			Links:     g.Size(),
			TargetQPS: *qps,

			Queries:      served,
			QPS:          achieved,
			Dropped:      st.Dropped,
			Unroutable:   st.Unroutable,
			P50Seconds:   st.QueryLatency.P50.Seconds(),
			P99Seconds:   st.QueryLatency.P99.Seconds(),
			MaxSeconds:   st.QueryLatency.Max.Seconds(),
			Epochs:       st.Epochs,
			BuildP50Secs: st.EpochBuild.P50.Seconds(),
			BuildP99Secs: st.EpochBuild.P99.Seconds(),
			CacheHitRate: hitRate,
			OnDemandLSPs: st.OnDemandLSPs,
			ProvisionSec: provisionTime.Seconds(),

			Scheme:            st.Scheme.String(),
			RestoreSamples:    st.Restore.Count,
			RestoreP50Secs:    st.Restore.P50.Seconds(),
			RestoreP99Secs:    st.Restore.P99.Seconds(),
			RestoreMaxSecs:    st.Restore.Max.Seconds(),
			LocalBuildP50Secs: st.LocalBuild.P50.Seconds(),
			LocalBuildP99Secs: st.LocalBuild.P99.Seconds(),
			StretchMean:       st.Stretch.Mean,
			DetourHopsMean:    st.DetourHops.Mean,
			LocalPairs:        st.LocalPairs,
			LocalUnrestorable: st.LocalUnrestorable,
			Converged:         st.Converged,

			Shards:        st.Shards,
			HotSources:    *hotSources,
			PlanRowBytes:  st.RowBytes,
			DenseRowBytes: st.DenseRowBytes,
			ColdQueries:   st.Cold.Queries,
			ColdShed:      st.Cold.Shed,
			ColdPromoted:  st.Cold.Promotions,

			RowsReused:       inc.PairsReused,
			RowsRecomputed:   inc.PairsRecomputed,
			AffectedEntering: inc.Entering,
			AffectedLeaving:  inc.Leaving,
			StaleRoutes:      inc.StaleRoutes,
			RepairImproved:   inc.RepairImproved,
			TreesAdopted:     inc.TreesAdopted,
			StageAffectedSec: time.Duration(inc.AffectedNanos).Seconds(),
			StageSolveSec:    time.Duration(inc.SolveNanos).Seconds(),
			StageResolveSec:  time.Duration(inc.ResolveNanos).Seconds(),
			StageAssembleSec: time.Duration(inc.AssembleNanos).Seconds(),

			Sweep:       sweepRecs,
			ShardSweep:  shardSweepRecs,
			ProcessMode: procRec,
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve: marshal bench record:", err)
			os.Exit(1)
		}
		path := filepath.Join(*benchDir, "BENCH_engine.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-serve: write bench record:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	if *strict && (st.Dropped > 0 || st.Unroutable > 0) {
		fmt.Fprintf(os.Stderr, "rbpc-serve: strict mode: %d dropped, %d unroutable\n", st.Dropped, st.Unroutable)
		os.Exit(1)
	}
	if *strict && *failEvery > 0 && st.Restore.Count == 0 {
		fmt.Fprintln(os.Stderr, "rbpc-serve: strict mode: churn ran but the prober recorded no time-to-restore samples")
		os.Exit(1)
	}
	if *strict && st.PendingTimers != 0 {
		fmt.Fprintf(os.Stderr, "rbpc-serve: strict mode: %d switchover timers still pending after drain\n", st.PendingTimers)
		os.Exit(1)
	}
	// The process-mode window is gated like the main one (the crash demo
	// is exempt: a killed worker legitimately sheds in-flight batches).
	if *strict && procRec != nil && *killAfter <= 0 && (procStats.Dropped > 0 || procStats.Unroutable > 0) {
		fmt.Fprintf(os.Stderr, "rbpc-serve: strict mode: process window: %d dropped, %d unroutable\n",
			procStats.Dropped, procStats.Unroutable)
		os.Exit(1)
	}
	if *strict && procRec != nil && *failEvery > 0 && procStats.Restore.Count == 0 {
		fmt.Fprintln(os.Stderr, "rbpc-serve: strict mode: process window recorded no time-to-restore samples")
		os.Exit(1)
	}
}
