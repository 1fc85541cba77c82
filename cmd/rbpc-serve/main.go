// Command rbpc-serve runs the online restoration engine under load: it
// provisions an RBPC system over a chosen topology, opens one backend over
// it — a lone engine, -shards N in-process shards, or -shard-procs N forked
// worker processes — and drives that backend through one open-loop query
// window while a failure injector walks a churn schedule. At the end it
// prints a latency and epoch report; with -strict it exits non-zero if the
// window misbehaved. Measuring is bench/'s job (BENCHMARK.json), not this
// binary's.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
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
// time-to-restore prober see it. *shard.Coordinator is one as it stands
// (-shards); procBackend adds the worker fleet's lifetime to it
// (-shard-procs); a lone engine needs the four methods of engineBackend to
// take the same shape.
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

// procBackend is the process-mode backend: the wire coordinator and the
// worker fleet it is attached to, closed together.
type procBackend struct {
	*shardrpc.Coordinator
	fleet *shardrpc.Fleet
}

func (b procBackend) Close() {
	b.Coordinator.Close()
	b.fleet.Close()
}

// openProcs forks the worker fleet (this same binary, -worker) and attaches
// the wire coordinator to it. A worker that crashes later is respawned by
// the fleet and reattached here.
func openProcs(p rbpc.Provision, wo shardrpc.WorkerOpts, cfg shardrpc.Config, stderr io.Writer) (procBackend, error) {
	var coord atomic.Pointer[shardrpc.Coordinator]
	fleet, err := shardrpc.NewFleet(wo, func(i int) {
		// Nil while the fleet is still being attached: the coordinator's
		// own dial loop picks the replacement up.
		if c := coord.Load(); c != nil {
			if err := c.Reattach(i); err != nil {
				fmt.Fprintf(stderr, "rbpc-serve: reattach worker %d: %v\n", i, err)
			}
		}
	})
	if err != nil {
		return procBackend{}, fmt.Errorf("fleet: %w", err)
	}
	cfg.Dial = fleet.Dial
	c, err := shardrpc.NewCoordinator(p, cfg)
	if err != nil {
		fleet.Close()
		return procBackend{}, fmt.Errorf("coordinator: %w", err)
	}
	coord.Store(c)
	return procBackend{c, fleet}, nil
}

// windowOpts parameterizes the measured serving window.
type windowOpts struct {
	qps       float64
	duration  time.Duration
	batch     int
	failEvery time.Duration
	maxDown   int
	seed      int64
	scheme    engine.Scheme
}

// windowResult is the scrape of the serving window after queue drain.
type windowResult struct {
	elapsed   time.Duration
	st        shard.Stats
	linksDown int
}

// runWindow drives the backend through one measured open-loop window: a
// churn injector walks the seeded schedule while generators submit query
// bursts on a fixed arrival schedule, never waiting for answers. Returns
// after the residual queue has drained so the scrape covers every accepted
// query.
func runWindow(g *graph.Graph, eng backend, o windowOpts) windowResult {
	// Failure injector: one churn event per tick, schedule long enough to
	// outlast the window. Every failure also launches a time-to-restore
	// probe.
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
					// The verdict of every poll is computed by whoever
					// answers the pair (probe.ProbeBackend).
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
	// Drain is a real barrier over every worker queue: it cannot scrape
	// between a dequeue and the answer, so the metrics cover every
	// accepted query.
	eng.Drain()

	return windowResult{
		elapsed:   elapsed,
		st:        eng.Stats(),
		linksDown: len(eng.Failed()),
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit code instead of calling
// os.Exit, so every path out — a strict violation included — runs the
// deferred Close that stops the backend and, in process mode, reaps the
// worker fleet.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbpc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo      = fs.String("topology", "as", "topology: as, isp, internet, or waxman")
		scale     = fs.Float64("scale", 0.1, "topology scale factor (as/internet/waxman)")
		seed      = fs.Int64("seed", 1, "deterministic seed for topology and churn")
		closure   = fs.Bool("closure", false, "provision the full subpath closure (quadratic; small topologies only)")
		qps       = fs.Float64("qps", 150_000, "target open-loop query rate")
		duration  = fs.Duration("duration", 3*time.Second, "measured serving window")
		workers   = fs.Int("workers", 0, "engine query workers (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 8192, "engine query queue depth (split across worker shards)")
		batch     = fs.Int("batch", 1024, "max queries per submitted burst")
		failEvery = fs.Duration("fail-every", 50*time.Millisecond, "interval between injected churn events (0 = no churn)")
		maxDown   = fs.Int("max-down", 3, "max links concurrently down during churn")
		schemeStr = fs.String("scheme", "source", "restoration scheme: source, local, bypass, or hybrid")
		floodDet  = fs.Duration("flood-detect", 2*time.Millisecond, "modeled failure-detection delay before the link-state flood starts (hybrid switchover)")
		floodHop  = fs.Duration("flood-hop", 100*time.Microsecond, "modeled per-hop link-state flood propagation delay (hybrid switchover)")
		strict    = fs.Bool("strict", false, "exit non-zero if any query was dropped or answered unroutable, or churn left no time-to-restore sample")

		shards     = fs.Int("shards", 0, "shard the pair space across N in-process coordinator shards (0 = single engine)")
		hotSources = fs.Int("hot-sources", 0, "provision only the first N sources (0 = all); other pairs answer on demand via the cold tier (needs -shards or -shard-procs)")
		planCache  = fs.Int("plan-cache-max", 0, "bound the per-engine failed-set plan cache to N plans, CLOCK-evicted (0 = unbounded)")

		shardProcs = fs.Int("shard-procs", 0, "serve the window from N forked worker processes over the wire transport (0 = in process)")
		workerSpec = fs.String("worker", "", "run as a shard worker process with this spec (internal; set by -shard-procs)")
		killAfter  = fs.Duration("kill-worker-after", 0, "kill worker 0 this long into the process-mode window (crash-recovery demo; 0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, msg ...any) int {
		fmt.Fprintln(stderr, append([]any{"rbpc-serve:"}, msg...)...)
		return code
	}
	if *workerSpec != "" {
		// Worker mode: this process is one shard of a fleet. It serves its
		// socket until the supervisor kills it.
		wo, err := shardrpc.ParseWorkerOpts(*workerSpec)
		if err != nil {
			return fail(2, err)
		}
		return fail(1, "worker:", shardrpc.RunWorker(wo))
	}
	if *shardProcs > 0 && *shards > 0 {
		return fail(2, "-shards and -shard-procs each pick the backend; give one")
	}
	// The load generator paces bursts of up to -batch queries by the
	// interval -qps sets: a burst of none never finishes its window, and a
	// rate of none has no interval.
	if *batch < 1 {
		return fail(2, "-batch must be at least 1, got", *batch)
	}
	if !(*qps > 0) { // NaN included
		return fail(2, "-qps must be above 0, got", *qps)
	}
	// A value the run would quietly replace is refused: a scale of none is
	// not the 16-node graph the generators clamp it to, a window of none
	// serves nothing, and a negative count or delay is not its flag's
	// default, its "all" or its "never".
	switch {
	case !(*scale > 0): // NaN included
		return fail(2, "-scale must be above 0, got", *scale)
	case *duration <= 0:
		return fail(2, "-duration must be above 0, got", *duration)
	case *shards < 0:
		return fail(2, "-shards must be 0 (single engine) or more, got", *shards)
	case *shardProcs < 0:
		return fail(2, "-shard-procs must be 0 (in process) or more, got", *shardProcs)
	case *workers < 0:
		return fail(2, "-workers must be 0 (GOMAXPROCS) or more, got", *workers)
	case *queue < 1:
		return fail(2, "-queue must be at least 1, got", *queue)
	case *hotSources < 0:
		return fail(2, "-hot-sources must be 0 (all) or more, got", *hotSources)
	case *planCache < 0:
		return fail(2, "-plan-cache-max must be 0 (unbounded) or more, got", *planCache)
	case *floodDet < 0:
		return fail(2, "-flood-detect must be 0 or more, got", *floodDet)
	case *floodHop < 0:
		return fail(2, "-flood-hop must be 0 or more, got", *floodHop)
	case *killAfter < 0:
		return fail(2, "-kill-worker-after must be 0 (never) or more, got", *killAfter)
	case *killAfter > 0 && *shardProcs == 0:
		return fail(2, "-kill-worker-after needs -shard-procs (it kills a worker process)")
	case *failEvery < 0:
		return fail(2, "-fail-every must be 0 (no churn) or more, got", *failEvery)
	case *maxDown < 1:
		return fail(2, "-max-down must be at least 1, got", *maxDown)
	case !slices.Contains(topology.Kinds, *topo):
		return fail(2, fmt.Sprintf("-topology must be one of %v, got %q", topology.Kinds, *topo))
	}
	nShards := max(*shards, *shardProcs)
	if *hotSources > 0 && nShards <= 0 {
		return fail(2, "-hot-sources needs -shards or -shard-procs (the cold tier lives in the coordinator)")
	}
	sch, err := engine.ParseScheme(*schemeStr)
	if err != nil {
		return fail(2, err)
	}
	if nShards > 0 {
		// Asked before anything is provisioned or forked: the worker spec
		// carries no scheme, so process mode would otherwise serve the
		// source scheme under another scheme's name and probe rules.
		if err := shard.SourceOnly(sch); err != nil {
			return fail(2, err)
		}
	}

	wo := shardrpc.WorkerOpts{Topology: *topo, Scale: *scale, Seed: *seed, Closure: *closure, HotSources: *hotSources}
	provStart := time.Now()
	p, err := wo.Provision()
	if err != nil {
		return fail(1, err)
	}
	g := p.Graph
	fmt.Fprintf(stdout, "topology %s: %d nodes, %d links; provisioned in %v (%d LSPs)\n",
		*topo, g.Order(), g.Size(), time.Since(provStart).Round(time.Millisecond), p.Net.NumLSPs())
	if *hotSources > 0 && *hotSources < g.Order() {
		fmt.Fprintf(stdout, "hot set: %d of %d sources (cold pairs answer on demand)\n", *hotSources, g.Order())
	}
	if sch != engine.SchemeSource {
		fmt.Fprintf(stdout, "restoration scheme: %s (flood detect %v, per-hop %v)\n", sch, *floodDet, *floodHop)
	}

	ecfg := engine.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		PlanCacheCap: *planCache,
		Scheme:       sch,
		Flood:        engine.FloodConfig{Detect: *floodDet, PerHop: *floodHop},
	}
	if ecfg.Workers < 1 {
		ecfg.Workers = runtime.GOMAXPROCS(0)
	}
	if nShards > 0 {
		// Per-shard workers/queue: the shards together get the configured
		// budget, not nShards times it.
		ecfg.Workers = (ecfg.Workers + nShards - 1) / nShards
		ecfg.QueueDepth = (*queue + nShards - 1) / nShards
	}

	// The one place a backend is opened; everything below drives and
	// reports on whichever this yields.
	var be backend
	switch {
	case *shardProcs > 0:
		// Each worker process is pinned to its share of the CPUs, so the
		// fleet is the same machine -shards N runs on. Queries are answered
		// here, from the replicas, by per-shard pools sized as -shards N
		// sizes its engines'.
		wo.Shards = nShards
		wo.MaxProcs = ecfg.Workers
		wo.PlanCacheMax = *planCache
		fmt.Fprintf(stdout, "forking %d worker processes (GOMAXPROCS %d each)... ", nShards, wo.MaxProcs)
		attachStart := time.Now()
		pb, err := openProcs(p, wo, shardrpc.Config{Shards: nShards, Engine: ecfg}, stderr)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "attached in %v\n", time.Since(attachStart).Round(time.Millisecond))
		if *killAfter > 0 {
			kill := time.AfterFunc(*killAfter, func() {
				fmt.Fprintln(stdout, "killing worker 0 (crash-recovery demo)")
				if err := pb.fleet.Kill(0); err != nil {
					fmt.Fprintln(stderr, "rbpc-serve: kill worker 0:", err)
				}
			})
			defer kill.Stop()
		}
		be = pb
	case *shards > 0:
		c, err := shard.New(p, shard.Config{Shards: nShards, Engine: ecfg})
		if err != nil {
			return fail(1, "shard coordinator:", err)
		}
		be = c
	default:
		e, err := engine.New(p, ecfg)
		if err != nil {
			return fail(1, "engine:", err)
		}
		be = engineBackend{e}
	}
	defer be.Close()

	res := runWindow(g, be, windowOpts{
		qps:       *qps,
		duration:  *duration,
		batch:     *batch,
		failEvery: *failEvery,
		maxDown:   *maxDown,
		seed:      *seed,
		scheme:    sch,
	})
	st := res.st
	hitRate := 0.0
	if st.PlanCacheHits+st.PlanCacheMiss > 0 {
		hitRate = float64(st.PlanCacheHits) / float64(st.PlanCacheHits+st.PlanCacheMiss)
	}

	fmt.Fprintf(stdout, "\nserved %d queries in %v (%.0f qps, target %.0f; %d dropped)\n",
		st.Queries, res.elapsed.Round(time.Millisecond), float64(st.Queries)/res.elapsed.Seconds(), *qps, st.Dropped)
	fmt.Fprintf(stdout, "query latency: p50 %v  p99 %v  max %v\n",
		st.QueryLatency.P50, st.QueryLatency.P99, st.QueryLatency.Max)
	fmt.Fprintf(stdout, "epochs: %d published (build p50 %v, p99 %v), plan cache hit rate %.2f\n",
		st.Epochs, st.EpochBuild.P50, st.EpochBuild.P99, hitRate)
	fmt.Fprintf(stdout, "unroutable answers: %d; final epoch %d with %d links down\n",
		st.Unroutable, st.Epoch, res.linksDown)
	if st.Restore.Count > 0 {
		fmt.Fprintf(stdout, "time-to-restore (%s): %d samples, p50 %v  p99 %v  max %v\n",
			sch, st.Restore.Count, st.Restore.P50, st.Restore.P99, st.Restore.Max)
	}
	if sch != engine.SchemeSource {
		fmt.Fprintf(stdout, "local plans: build p50 %v p99 %v; %d affected pairs (%d unrestorable); stretch mean %.0f permille; detour hops mean %.1f max %d; %d transitions converged\n",
			st.LocalBuild.P50, st.LocalBuild.P99, st.LocalPairs, st.LocalUnrestorable,
			st.Stretch.Mean, st.DetourHops.Mean, st.DetourHops.Max, st.Converged)
	}
	inc := st.Incremental
	fmt.Fprintf(stdout, "incremental: %d rows reused / %d recomputed (%d entering, %d leaving, %d stale, %d repair-improved)\n",
		inc.PairsReused, inc.PairsRecomputed, inc.Entering, inc.Leaving, inc.StaleRoutes, inc.RepairImproved)
	fmt.Fprintf(stdout, "build stages: affected %v  solve %v  resolve %v  assemble %v\n",
		time.Duration(inc.AffectedNanos), time.Duration(inc.SolveNanos),
		time.Duration(inc.ResolveNanos), time.Duration(inc.AssembleNanos))
	if nShards > 0 {
		ratio := 0.0
		if st.RowBytes > 0 {
			ratio = float64(st.DenseRowBytes) / float64(st.RowBytes)
		}
		fmt.Fprintf(stdout, "shards: %d; resident rows %d bytes vs dense %d (%.1fx); cold: %d queries, %d solved, %d shed\n",
			st.Shards, st.RowBytes, st.DenseRowBytes, ratio,
			st.Cold.Queries, st.Cold.Solved, st.Cold.Shed)
	}
	if pb, ok := be.(procBackend); ok {
		fmt.Fprintf(stdout, "process mode: %d worker restarts, %d torn frames\n", pb.fleet.Restarts(), pb.Torn())
	}

	if *strict {
		// The crash demo is exempt from the drop gate only: a killed worker
		// legitimately sheds its in-flight batches, but its sources divert
		// to the cold tier and must still be answered.
		dropsGated := *shardProcs <= 0 || *killAfter <= 0
		switch {
		case st.Unroutable > 0 || (dropsGated && st.Dropped > 0):
			return fail(1, fmt.Sprintf("strict mode: %d dropped, %d unroutable", st.Dropped, st.Unroutable))
		case *failEvery > 0 && st.Restore.Count == 0:
			return fail(1, "strict mode: churn ran but the prober recorded no time-to-restore samples")
		}
	}
	return 0
}
