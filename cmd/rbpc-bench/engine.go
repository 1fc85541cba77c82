package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
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

// engineChurnRecord is the BENCH_engine_churn.json payload: the common
// stage-record header plus the incremental epoch builder's per-stage
// timings and reuse counters, measured over a deterministic synchronous
// churn schedule (no open-loop load — every epoch build is flushed and
// timed on its own, so the numbers isolate the writer pipeline).
type engineChurnRecord struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Seed    int64   `json:"seed"`
	// FullScale is derived from Scale (>= 1.0 is the paper's AS size) —
	// the -full flag governs the table stages, not this one, so the
	// recorded provenance matches the topology actually churned.
	FullScale bool    `json:"full_scale"`
	Scale     float64 `json:"scale"`
	MaxProcs  int     `json:"gomaxprocs"`
	GoVersion string  `json:"go_version"`

	Nodes  int   `json:"nodes"`
	Links  int   `json:"links"`
	Steps  int   `json:"steps"`
	Epochs int64 `json:"epochs"`

	BuildP50Secs float64 `json:"epoch_build_p50_seconds"`
	BuildP99Secs float64 `json:"epoch_build_p99_seconds"`
	CacheHitRate float64 `json:"plan_cache_hit_rate"`

	// Sharding telemetry: shard count (1 = single engine), provisioned
	// hot sources (0 = all), and resident vs dense routing-matrix bytes.
	Shards        int   `json:"shards"`
	HotSources    int   `json:"hot_sources"`
	PlanRowBytes  int64 `json:"plan_row_bytes"`
	DenseRowBytes int64 `json:"dense_row_bytes"`

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

	// Schemes holds the four-way restoration-scheme comparison: the
	// identical churn schedule re-run per scheme on a fresh single engine
	// with the wall-clock time-to-restore prober attached to every
	// failure. restore_p50_seconds is the comparison's headline metric;
	// the local-plan quality counters are zero under the source scheme.
	Schemes []schemeChurnEntry `json:"scheme_comparison,omitempty"`
	// Sweep holds one entry per -engine-sweep GOMAXPROCS value, each a
	// fresh engine driven through the identical schedule.
	Sweep []engineSweepEntry `json:"gomaxprocs_sweep,omitempty"`
	// ShardSweep holds one entry per -engine-shard-sweep shard count,
	// each a fresh coordinator driven through the identical schedule.
	ShardSweep []engineShardSweepEntry `json:"shard_sweep,omitempty"`
	// ProcessMode holds the -engine-shard-procs stage: the identical
	// schedule driven through forked worker processes over the wire.
	ProcessMode *processModeChurn `json:"process_mode,omitempty"`
}

// processModeChurn is the process-mode churn stage: every event a burst
// broadcast plus a cross-process flush barrier, every epoch built inside
// a worker process with its own GC. flush_p99_seconds is the
// coordinator-observed barrier latency (burst applied, epochs rebuilt,
// snapshot frames landed, acks read); the build percentiles are the
// workers' own, merged over the wire.
type processModeChurn struct {
	ShardProcs    int     `json:"shard_procs"`
	Seconds       float64 `json:"seconds"`
	InprocSeconds float64 `json:"inproc_seconds"`
	Epochs        int64   `json:"epochs"`
	BuildP50Secs  float64 `json:"epoch_build_p50_seconds"`
	BuildP99Secs  float64 `json:"epoch_build_p99_seconds"`
	FlushP50Secs  float64 `json:"flush_p50_seconds"`
	FlushP99Secs  float64 `json:"flush_p99_seconds"`
	TornFrames    int64   `json:"torn_frames"`
}

// engineSweepEntry is one GOMAXPROCS point of the churn sweep.
type engineSweepEntry struct {
	MaxProcs         int     `json:"gomaxprocs"`
	Seconds          float64 `json:"seconds"`
	BuildP50Secs     float64 `json:"epoch_build_p50_seconds"`
	BuildP99Secs     float64 `json:"epoch_build_p99_seconds"`
	StageSolveSec    float64 `json:"stage_solve_seconds"`
	StageAssembleSec float64 `json:"stage_assemble_seconds"`
}

// schemeChurnEntry is one scheme's row of the four-way comparison.
type schemeChurnEntry struct {
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
}

// engineShardSweepEntry is one shard-count point of the churn sweep.
type engineShardSweepEntry struct {
	Shards       int     `json:"shards"`
	Seconds      float64 `json:"seconds"`
	BuildP50Secs float64 `json:"epoch_build_p50_seconds"`
	BuildP99Secs float64 `json:"epoch_build_p99_seconds"`
	PlanRowBytes int64   `json:"plan_row_bytes"`
}

// parseProcsList parses a comma-separated GOMAXPROCS list ("1,2,4,8").
// An empty string means no sweep.
func parseProcsList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
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

// churnOnce drives a fresh engine — or, when shards > 0, a fresh
// multi-shard coordinator — over the event schedule synchronously and
// returns the wall time of the flushed loop plus the final merged stats
// (a single engine's stats are lifted into the merged shape).
func churnOnce(sys *rbpc.System, events []failure.Event, shards int) (time.Duration, shard.Stats, error) {
	var fail, repair func(graph.EdgeID)
	var flush func()
	var scrape func() shard.Stats
	if shards > 0 {
		c, err := shard.New(sys.Export(), shard.Config{Shards: shards})
		if err != nil {
			return 0, shard.Stats{}, fmt.Errorf("shard coordinator: %w", err)
		}
		defer c.Close()
		fail, repair, flush, scrape = c.Fail, c.Repair, c.Flush, c.Stats
	} else {
		eng, err := engine.New(sys.Export(), engine.Config{})
		if err != nil {
			return 0, shard.Stats{}, fmt.Errorf("engine: %w", err)
		}
		defer eng.Close()
		fail, repair, flush = eng.Fail, eng.Repair, eng.Flush
		scrape = func() shard.Stats {
			st := eng.Stats()
			return shard.MergeStats([]engine.Stats{st}, st.Epoch, shard.ColdStats{})
		}
	}
	// Retire setup garbage before the clock starts: marking the
	// few-hundred-MB provisioned heap takes on the order of a second at one
	// P, and letting that cycle land mid-loop would charge setup's GC debt
	// to whichever build stage it interrupts.
	runtime.GC()
	start := time.Now()
	for _, ev := range events {
		if ev.Repair {
			repair(ev.Edge)
		} else {
			fail(ev.Edge)
		}
		flush()
	}
	elapsed := time.Since(start)
	return elapsed, scrape(), nil
}

// durPct returns the p-th percentile of a sorted duration slice.
func durPct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)-1) * p / 100)
	return sorted[i]
}

// runProcChurn drives the identical schedule through a forked worker
// fleet: one burst broadcast plus one cross-process flush barrier per
// event. The fleet rebuilds the same AS provision from (scale, seed)
// alone; the coordinator's stats scrape merges the workers' epoch-build
// percentiles over the wire.
func runProcChurn(out *os.File, sys *rbpc.System, events []failure.Event, scale float64, seed int64, hotSources, procs int, inproc time.Duration) (*processModeChurn, error) {
	wo := shardrpc.WorkerOpts{
		Topology:   "as",
		Scale:      scale,
		Seed:       seed,
		HotSources: hotSources,
		Shards:     procs,
	}
	var coordPtr atomic.Pointer[shardrpc.Coordinator]
	fleet, err := shardrpc.NewFleet(wo, func(i int) {
		if c := coordPtr.Load(); c != nil {
			if err := c.Reattach(i); err != nil {
				fmt.Fprintf(os.Stderr, "rbpc-bench: reattach worker %d: %v\n", i, err)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer fleet.Close()
	attachStart := time.Now()
	coord, err := shardrpc.NewCoordinator(sys.Export(), shardrpc.Config{
		Shards:     procs,
		Dial:       fleet.Dial,
		DialBudget: 5 * time.Minute, // workers re-provision before listening
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	defer coord.Close()
	coordPtr.Store(coord)
	fmt.Fprintf(out, "process mode: %d workers forked and attached in %v\n",
		procs, time.Since(attachStart).Round(time.Millisecond))

	runtime.GC()
	flushes := make([]time.Duration, 0, len(events))
	start := time.Now()
	for _, ev := range events {
		if ev.Repair {
			coord.Repair(ev.Edge)
		} else {
			coord.Fail(ev.Edge)
		}
		f0 := time.Now()
		coord.Flush()
		flushes = append(flushes, time.Since(f0))
	}
	elapsed := time.Since(start)
	st := coord.Stats()
	sort.Slice(flushes, func(i, j int) bool { return flushes[i] < flushes[j] })
	rec := &processModeChurn{
		ShardProcs:    procs,
		Seconds:       elapsed.Seconds(),
		InprocSeconds: inproc.Seconds(),
		Epochs:        st.Epochs,
		BuildP50Secs:  st.EpochBuild.P50.Seconds(),
		BuildP99Secs:  st.EpochBuild.P99.Seconds(),
		FlushP50Secs:  durPct(flushes, 50).Seconds(),
		FlushP99Secs:  durPct(flushes, 99).Seconds(),
		TornFrames:    coord.Torn(),
	}
	fmt.Fprintf(out, "process mode: %v total vs %v in-process; flush barrier p50 %v p99 %v; build p99 %v; %d torn frames\n",
		elapsed.Round(time.Millisecond), inproc.Round(time.Millisecond),
		durPct(flushes, 50), durPct(flushes, 99), st.EpochBuild.P99, coord.Torn())
	return rec, nil
}

// engineProbe adapts a bare engine to the prober's backend surface (the
// engine's own Query and AffectedPairs, its RecordRestore minus the source).
type engineProbe struct{ *engine.Engine }

func (p engineProbe) RecordRestore(_ graph.NodeID, d time.Duration) { p.Engine.RecordRestore(d) }

// runSchemeComparison re-runs the identical churn schedule once per
// restoration scheme on a fresh single engine, timing every failure's
// restoration with the shared prober. The failure-detection and per-hop
// flood delays are fixed so hybrid's switchover horizon is the same
// across runs.
func runSchemeComparison(out *os.File, sys *rbpc.System, events []failure.Event) ([]schemeChurnEntry, error) {
	flood := engine.FloodConfig{Detect: 2 * time.Millisecond, PerHop: 100 * time.Microsecond}
	var recs []schemeChurnEntry
	for _, sch := range engine.Schemes() {
		eng, err := engine.New(sys.Export(), engine.Config{Scheme: sch, Flood: flood})
		if err != nil {
			return nil, fmt.Errorf("engine (%s): %w", sch, err)
		}
		runtime.GC()
		for _, ev := range events {
			if ev.Repair {
				eng.Repair(ev.Edge)
				eng.Flush()
				continue
			}
			t0 := time.Now()
			eng.Fail(ev.Edge)
			probe.Restore(engineProbe{eng}, sch, ev.Edge, t0)
			eng.Flush()
		}
		eng.Drain()
		st := eng.Stats()
		eng.Close()
		recs = append(recs, schemeChurnEntry{
			Scheme:            sch.String(),
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
		})
		fmt.Fprintf(out, "scheme %-6s: restore p50 %v  p99 %v (%d samples); stretch mean %.0f permille; %d local pairs (%d unrestorable); %d converged\n",
			sch, st.Restore.P50, st.Restore.P99, st.Restore.Count,
			st.Stretch.Mean, st.LocalPairs, st.LocalUnrestorable, st.Converged)
	}
	var hybrid, local *schemeChurnEntry
	for i := range recs {
		switch recs[i].Scheme {
		case engine.SchemeHybrid.String():
			hybrid = &recs[i]
		case engine.SchemeLocal.String():
			local = &recs[i]
		}
	}
	if hybrid != nil && local != nil {
		verdict := "<="
		if hybrid.RestoreP50Secs > local.RestoreP50Secs {
			verdict = ">"
		}
		fmt.Fprintf(out, "headline: hybrid restore p50 %.3fms %s local end-route %.3fms at equal churn\n",
			hybrid.RestoreP50Secs*1e3, verdict, local.RestoreP50Secs*1e3)
	}
	return recs, nil
}

// runEngineChurn provisions the AS stand-in at the given scale, drives the
// online engine through a seeded churn schedule synchronously (fail/repair
// + flush per event), and reports where the epoch-build time went. It
// returns an error instead of exiting so -compare can still run.
// The recorded full_scale provenance derives from the scale actually
// churned (-engine-scale 1.0 is the paper's AS size), not the -full flag.
func runEngineChurn(out *os.File, dir string, scale float64, steps, maxDown int, seed int64, sweep []int, shards, hotSources int, shardSweep []int, shardProcs int) error {
	g := topology.PaperAS(seed, scale)
	fmt.Fprintf(out, "engine churn: AS stand-in, %d nodes, %d links, %d events (max %d down)\n",
		g.Order(), g.Size(), steps, maxDown)

	rcfg := rbpc.Config{EdgeLSPs: true}
	if hotSources > 0 && hotSources < g.Order() {
		srcs := make([]graph.NodeID, hotSources)
		for i := range srcs {
			srcs[i] = graph.NodeID(i)
		}
		rcfg.Sources = srcs
		fmt.Fprintf(out, "hot set: %d of %d sources\n", hotSources, g.Order())
	}

	t := time.Now()
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	fmt.Fprintf(out, "provisioned in %v\n", time.Since(t).Round(time.Millisecond))

	events := failure.ChurnSchedule(g, steps, maxDown, rand.New(rand.NewSource(seed)))
	elapsed, st, err := churnOnce(sys, events, shards)
	if err != nil {
		return err
	}

	// The sweep re-runs the identical schedule on a fresh engine per
	// GOMAXPROCS value, restoring the ambient setting afterwards.
	var sweepRecs []engineSweepEntry
	if len(sweep) > 0 {
		ambient := runtime.GOMAXPROCS(0)
		for _, procs := range sweep {
			runtime.GOMAXPROCS(procs)
			sElapsed, sSt, err := churnOnce(sys, events, shards)
			if err != nil {
				runtime.GOMAXPROCS(ambient)
				return err
			}
			sInc := sSt.Incremental
			sweepRecs = append(sweepRecs, engineSweepEntry{
				MaxProcs:         procs,
				Seconds:          sElapsed.Seconds(),
				BuildP50Secs:     sSt.EpochBuild.P50.Seconds(),
				BuildP99Secs:     sSt.EpochBuild.P99.Seconds(),
				StageSolveSec:    time.Duration(sInc.SolveNanos).Seconds(),
				StageAssembleSec: time.Duration(sInc.AssembleNanos).Seconds(),
			})
			fmt.Fprintf(out, "sweep GOMAXPROCS=%d: %v total (build p50 %v, p99 %v; solve %v, assemble %v)\n",
				procs, sElapsed.Round(time.Millisecond), sSt.EpochBuild.P50, sSt.EpochBuild.P99,
				time.Duration(sInc.SolveNanos), time.Duration(sInc.AssembleNanos))
		}
		runtime.GOMAXPROCS(ambient)
	}

	// Shard-count sweep: the identical schedule on a fresh coordinator
	// per shard count.
	var shardSweepRecs []engineShardSweepEntry
	for _, count := range shardSweep {
		sElapsed, sSt, err := churnOnce(sys, events, count)
		if err != nil {
			return err
		}
		shardSweepRecs = append(shardSweepRecs, engineShardSweepEntry{
			Shards:       count,
			Seconds:      sElapsed.Seconds(),
			BuildP50Secs: sSt.EpochBuild.P50.Seconds(),
			BuildP99Secs: sSt.EpochBuild.P99.Seconds(),
			PlanRowBytes: sSt.RowBytes,
		})
		fmt.Fprintf(out, "sweep shards=%d: %v total (build p50 %v, p99 %v; resident rows %d bytes)\n",
			count, sElapsed.Round(time.Millisecond), sSt.EpochBuild.P50, sSt.EpochBuild.P99, sSt.RowBytes)
	}
	// Process-mode stage: the identical schedule through a forked worker
	// fleet over the wire transport.
	var procRec *processModeChurn
	if shardProcs > 0 {
		procRec, err = runProcChurn(out, sys, events, scale, seed, hotSources, shardProcs, elapsed)
		if err != nil {
			return err
		}
	}
	// Four-way restoration-scheme comparison over the same schedule —
	// time-to-restore per scheme is the headline of the whole stage.
	fmt.Fprintln(out, "scheme comparison (same schedule, fresh engine per scheme):")
	schemeRecs, err := runSchemeComparison(out, sys, events)
	if err != nil {
		return err
	}

	inc := st.Incremental
	hitRate := 0.0
	if st.PlanCacheHits+st.PlanCacheMiss > 0 {
		hitRate = float64(st.PlanCacheHits) / float64(st.PlanCacheHits+st.PlanCacheMiss)
	}
	fmt.Fprintf(out, "%d epochs in %v (build p50 %v, p99 %v), plan cache hit rate %.2f\n",
		st.Epochs, elapsed.Round(time.Millisecond), st.EpochBuild.P50, st.EpochBuild.P99, hitRate)
	fmt.Fprintf(out, "incremental: %d rows reused / %d recomputed (%d entering, %d leaving, %d stale, %d repair-improved), %d trees adopted\n",
		inc.PairsReused, inc.PairsRecomputed, inc.Entering, inc.Leaving, inc.StaleRoutes, inc.RepairImproved, inc.TreesAdopted)
	fmt.Fprintf(out, "build stages: affected %v  solve %v  resolve %v  assemble %v\n",
		time.Duration(inc.AffectedNanos), time.Duration(inc.SolveNanos),
		time.Duration(inc.ResolveNanos), time.Duration(inc.AssembleNanos))
	if shards > 0 {
		ratio := 0.0
		if st.RowBytes > 0 {
			ratio = float64(st.DenseRowBytes) / float64(st.RowBytes)
		}
		fmt.Fprintf(out, "shards: %d; resident rows %d bytes vs dense %d (%.1fx)\n",
			st.Shards, st.RowBytes, st.DenseRowBytes, ratio)
	}

	if dir == "" {
		return nil
	}
	rec := engineChurnRecord{
		Name:      "engine_churn",
		Seconds:   elapsed.Seconds(),
		Seed:      seed,
		FullScale: scale >= 1.0,
		Scale:     scale,
		MaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),

		Nodes:  g.Order(),
		Links:  g.Size(),
		Steps:  steps,
		Epochs: st.Epochs,

		BuildP50Secs: st.EpochBuild.P50.Seconds(),
		BuildP99Secs: st.EpochBuild.P99.Seconds(),
		CacheHitRate: hitRate,

		Shards:        st.Shards,
		HotSources:    hotSources,
		PlanRowBytes:  st.RowBytes,
		DenseRowBytes: st.DenseRowBytes,

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

		Schemes:     schemeRecs,
		Sweep:       sweepRecs,
		ShardSweep:  shardSweepRecs,
		ProcessMode: procRec,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal bench record: %w", err)
	}
	path := filepath.Join(dir, "BENCH_engine_churn.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write bench record: %w", err)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
