package main

import (
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/shard"
	"rbpc/internal/shardrpc"
	"rbpc/internal/spath"
)

// Sizes of the direct per-layer probes of a traced run.
const (
	layerEvents   = 12    // seeded single failures replayed for the per-event probes
	layerSources  = 8     // affected sources solved per event
	layerLookups  = 20000 // row lookups, owner lookups and synchronous queries timed in a loop
	layerFrames   = 2000  // frame echoes per transport
	layerColdAsks = 200
)

// timeLoop returns the mean ns of one call of f over n calls.
func timeLoop(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func val(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// perLayer assembles the per-layer table of a traced run from the spans
// recorded around the benchmark's own calls, from counter deltas scraped
// at the phase boundaries, and from direct timed calls to each layer's
// public functions on this workload's inputs. A metric of a layer this
// workload does not pass through reads 0.
func (r *run) perLayer() map[string]metric {
	m := map[string]metric{}
	w, be := r.w, r.be
	layer := be.layer()
	sp := r.tr.spans()

	m["topology.build_s"] = val(w.st.topology.Seconds(), "s")
	m["rbpc.provision_s"] = val(w.st.provision.Seconds(), "s")
	m["rbpc.lsps"] = val(float64(w.st.lsps), "count")

	// Burst path: spans of the serial phase and counter deltas across it.
	serialSpans := spansOfPhase(sp, "event", r.serialFrom, len(sp))
	fail := durations(serialSpans, layer+".fail")
	flush := durations(serialSpans, layer+".flush")
	m["engine.fail_call_us"] = timing(fail, 50, "us", us)
	m["engine.flush_call_ms"] = timing(flush, 50, "ms", ms)
	m["engine.flush_p99_ms"] = timing(flush, 99, "ms", ms)
	m["engine.flush_fail_p50_ms"] = timing(r.serial.flush, 50, "ms", ms)
	m["engine.flush_repair_p50_ms"] = timing(r.serial.flushRepair, 50, "ms", ms)
	m["engine.epoch_build_p50_ms"] = val(ms(float64(r.serialStats.EpochBuild.P50)), "ms")
	inc, inc0 := r.serialStats.Incremental, r.stats[2].Incremental
	// Shards build in parallel, so the stage time of one flush is the
	// per-engine mean.
	var flushWall float64
	for _, d := range flush {
		flushWall += d
	}
	flushWall *= float64(max(r.serialStats.Shards, 1))
	stages := map[string]float64{
		"affected": float64(inc.AffectedNanos - inc0.AffectedNanos),
		"solve":    float64(inc.SolveNanos - inc0.SolveNanos),
		"resolve":  float64(inc.ResolveNanos - inc0.ResolveNanos),
		"assemble": float64(inc.AssembleNanos - inc0.AssembleNanos),
	}
	other := 1.0
	for name, ns := range stages {
		s := share(ns, flushWall)
		m["engine.stage_"+name+"_share"] = val(s, "ratio")
		other -= s
	}
	m["engine.stage_other_share"] = val(other, "ratio")
	events := float64(max(r.serial.events, 1))
	reused, recomputed := float64(inc.PairsReused-inc0.PairsReused), float64(inc.PairsRecomputed-inc0.PairsRecomputed)
	m["engine.rows_recomputed_per_event"] = val(recomputed/events, "count")
	m["engine.rows_reused_share"] = val(share(reused, reused+recomputed), "ratio")
	hits := float64(r.serialStats.PlanCacheHits - r.stats[2].PlanCacheHits)
	miss := float64(r.serialStats.PlanCacheMiss - r.stats[2].PlanCacheMiss)
	m["engine.plan_cache_hit_rate"] = val(share(hits, hits+miss), "ratio")
	m["engine.trees_adopted_per_event"] = val(float64(inc.TreesAdopted-inc0.TreesAdopted)/events, "count")

	// Query path: submit spans of the load phase (the bulk phase's spin on
	// back-pressure), and the engines' own bucketed wait histogram.
	submit := durations(spansOfPhase(sp, "batch", 0, r.bulkFrom), layer+".submit_batch")
	perQ := val(mean(submit)/float64(r.cfg.batch), "ns")
	for _, l := range []string{"engine", "shard"} {
		m[l+".submit_batch_ns_per_q"] = val(0, "ns")
	}
	m["shardrpc.batch_ns_per_q"] = val(0, "ns")
	if layer == "shardrpc" {
		m["shardrpc.batch_ns_per_q"] = perQ
	} else {
		m[layer+".submit_batch_ns_per_q"] = perQ
	}
	m["engine.batch_wait_p50_us"] = val(us(float64(r.stats[1].QueryLatency.P50)), "us")
	m["engine.batch_wait_p99_us"] = val(us(float64(r.stats[1].QueryLatency.P99)), "us")
	m["engine.queue_shed"] = val(float64(r.load.offered-r.load.accepted+r.stats[1].Dropped-r.stats[0].Dropped), "count")

	// Schemes (zero under the source scheme).
	st := r.serialStats
	m["engine.local_build_p50_ms"] = val(ms(float64(st.LocalBuild.P50)), "ms")
	m["engine.stretch_permille"] = val(st.Stretch.Mean, "permille")
	m["engine.detour_hops_mean"] = val(st.DetourHops.Mean, "count")
	m["engine.local_unrestorable"] = val(float64(st.LocalUnrestorable), "count")
	m["engine.converged_transitions"] = val(float64(st.Converged), "count")
	for _, k := range []string{"engine.restore_local_p50_ms", "engine.restore_bypass_p50_ms"} {
		m[k] = val(0, "ms")
	}
	m["engine.stretch_local_permille"] = val(0, "permille")
	m["engine.paper_shape_ok"] = val(0, "bool")
	if r.def.scheme == engine.SchemeHybrid {
		r.schemePasses(m)
	}

	r.eventProbes(m)
	r.lookupProbes(m)
	r.transportProbes(m)

	// Shard and transport counters.
	last := r.stats[3]
	m["shard.row_bytes_ratio"] = val(share(float64(last.RowBytes), float64(last.DenseRowBytes)), "ratio")
	m["shardrpc.attach_s"] = val(w.st.attach.Seconds(), "s")
	m["shardrpc.inflight_shed"] = val(0, "count")
	m["shardrpc.torn_frames"] = val(0, "count")
	m["shardrpc.worker_restarts"] = val(0, "count")
	m["shardrpc.cold_diverted"] = val(float64(last.Cold.Queries), "count")
	if wb, ok := be.(wireBE); ok {
		m["shardrpc.inflight_shed"] = val(float64(last.Dropped-r.stats[0].Dropped), "count")
		m["shardrpc.torn_frames"] = val(float64(wb.c.Torn()), "count")
		if wb.fleet != nil {
			m["shardrpc.worker_restarts"] = val(float64(wb.fleet.Restarts()), "count")
		}
	}

	// Prober, load generator, tracer.
	all := append(append(samples(nil), r.load.restore...), r.serial.restore...)
	m["probe.samples"] = val(float64(len(all)), "count")
	_, timeoutsLoad, _ := r.load.probed()
	_, timeoutsSerial, _ := r.serial.probed()
	m["probe.timeouts"] = val(float64(timeoutsLoad+timeoutsSerial), "count")
	m["probe.polls_per_sample"] = val(share(float64(r.load.polls+r.serial.polls), float64(len(all))), "count")
	m["probe.restore_loaded_p50_ms"] = timing(r.load.restore, 50, "ms", ms)
	m["probe.restore_p90_ms"] = timing(r.load.restore, 90, "ms", ms)
	m["probe.restore_p99_ms"] = timing(r.load.restore, 99, "ms", ms)
	m["loadgen.query_p50_us"] = timing(r.load.fg, 50, "us", us)
	m["loadgen.query_p99_us"] = timing(r.load.fg, 99, "us", us)
	m["loadgen.lag_p99_us"] = timing(r.loadLag, 99, "us", us)
	m["loadgen.achieved_qps"] = val(perSec(float64(r.load.answers), r.load.wall), "1/s")
	cal := newTracer()
	cost := timeLoop(100000, func(int) { cal.end(cal.begin("calibrate", 0, 0)) })
	// What the benchmark's own loop costs per serial event: the part of an
	// event root that none of its calls into a layer covers.
	var loop samples
	for i, self := range selfTimes(serialSpans) {
		if serialSpans[i].Name == "event" {
			loop.add(float64(self))
		}
	}
	m["trace.event_self_us"] = timing(loop, 50, "us", us)
	m["trace.spans"] = val(float64(len(sp)), "count")
	m["trace.span_cost_ns"] = val(cost, "ns")
	m["trace.overhead_pct"] = val(100*share(cost*float64(len(sp)), float64(r.load.wall+r.bulk.wall+r.serial.wall)), "%")
	return m
}

// spansOfPhase returns the root spans of the given name with from < id <=
// to, together with their descendants.
func spansOfPhase(sp []span, root string, from, to int) []span {
	keep := make(map[int]bool)
	var out []span
	for _, s := range sp {
		if (s.Parent == 0 && s.Name == root && s.ID > from && s.ID <= to) || keep[s.Parent] {
			keep[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// schemePasses runs a short serial pass on a fresh engine under each of
// the local schemes, so the hybrid workload can be set against them: the
// paper's claim is that hybrid never restores slower than local.
func (r *run) schemePasses(m map[string]metric) {
	d := time.Duration(0.1 * r.cfg.seconds * float64(time.Second))
	for _, sch := range []engine.Scheme{engine.SchemeLocal, engine.SchemeBypass} {
		def := workloadDef{name: "pass_" + sch.String(), shape: shapeEngine, scheme: sch}
		s := newSink()
		e, err := engine.New(r.w.prov, engineConfig(def, s, queryWorker))
		if err != nil {
			continue
		}
		sub := &run{cfg: r.cfg, def: def, w: r.w, be: engineBE{e, s}, o: r.o, pop: r.pop, eps: r.eps}
		sub.serialPhase(d)
		m["engine.restore_"+sch.String()+"_p50_ms"] = timing(sub.serial.restore, 50, "ms", ms)
		if sch == engine.SchemeLocal {
			m["engine.stretch_local_permille"] = val(sub.serialStats.Stretch.Mean, "permille")
			hybrid := pct(r.serial.restore.sorted(), 50)
			local := pct(sub.serial.restore.sorted(), 50)
			if hybrid <= local {
				m["engine.paper_shape_ok"] = val(1, "bool")
			}
		}
		e.Close()
	}
}

// eventProbes replays seeded single failures on the idle deployment and
// times each layer's public function on what that failure produced: the
// affected-pair lookup, one shortest-path tree and the per-source solves
// on the epoch's failure view, the snapshot codec on the epoch itself.
func (r *run) eventProbes(m map[string]metric) {
	g, be, prov := r.w.g, r.be, r.w.prov
	rng := rand.New(rand.NewSource(r.cfg.seed*1000 + 9))
	dec, _ := engine.NewSnapDecoder(prov)
	var affNs, affN, tree, solve, comps, enc, encBytes, decode, routeWire, view, lagEpochs, horizon samples
	var torn, views float64
	compMax := 0.0
	for ev := 0; ev < layerEvents; ev++ {
		ed := r.pop[rng.Intn(len(r.pop))]
		var aff []graph.NodePair
		affNs.add(timeLoop(1000, func(int) { aff = be.AffectedPairs(ed) }))
		affN.add(float64(len(aff)))
		be.Fail(ed)
		// Between the injection and the flush the shards may disagree.
		if c := viewerOf(be); c != nil {
			t0 := time.Now()
			_, whole := c.View()
			view.addDur(time.Since(t0))
			views++
			if !whole {
				torn++
			}
			var hi uint64
			for _, s := range be.snapshots() {
				hi = max(hi, s.Epoch())
			}
			lagEpochs.add(float64(hi - min(hi, c.Watermark())))
		}
		be.Flush()
		snaps := be.snapshots()
		fv := snaps[0].View()
		horizon.add(float64(snaps[0].MaxHorizon()))

		bySrc := map[graph.NodeID][]graph.NodeID{}
		var order []graph.NodeID
		for _, pr := range aff {
			if _, seen := bySrc[pr.Src]; !seen {
				order = append(order, pr.Src)
			}
			bySrc[pr.Src] = append(bySrc[pr.Src], pr.Dst)
		}
		for _, s := range order[:min(len(order), layerSources)] {
			t0 := time.Now()
			spath.Compute(fv, s)
			tree.addDur(time.Since(t0))
			t0 = time.Now()
			decs, oks := core.DecomposeSparseFrom(prov.Base, fv, s, bySrc[s])
			solve.addDur(time.Since(t0))
			for i, d := range decs {
				if oks[i] {
					comps.add(float64(d.Len()))
					compMax = max(compMax, float64(d.Len()))
				}
			}
		}
		for _, s := range snaps {
			t0 := time.Now()
			buf, err := s.AppendWire(nil)
			if err != nil {
				continue // dense rows are not wire state
			}
			enc.addDur(time.Since(t0))
			encBytes.add(float64(len(buf)))
			t0 = time.Now()
			if _, err := dec.Decode(buf); err == nil {
				decode.addDur(time.Since(t0))
			}
			for _, pr := range aff[:min(len(aff), 64)] {
				if rt := s.Route(pr.Src, pr.Dst); rt != nil && be.owner(pr.Src) < len(snaps) && snaps[be.owner(pr.Src)] == s {
					t0 := time.Now()
					rb := engine.AppendRouteWire(nil, rt)
					if _, _, err := dec.DecodeRouteWire(rb); err == nil {
						routeWire.addDur(time.Since(t0))
					}
				}
			}
		}
		be.Repair(ed)
		be.Flush()
	}
	m["paths.affected_pairs_ns"] = timing(affNs, 50, "ns", id)
	m["paths.affected_pairs_mean"] = val(mean(affN), "count")
	m["spath.tree_us"] = timing(tree, 50, "us", us)
	m["spath.ns_per_edge"] = val(share(pct(tree.sorted(), 50), float64(g.Size())), "ns")
	m["core.solve_source_us"] = timing(solve, 50, "us", us)
	m["core.components_mean"] = val(mean(comps), "count")
	m["core.components_max"] = val(compMax, "count")
	m["engine.snap_encode_us"] = timing(enc, 50, "us", us)
	m["engine.snap_bytes"] = val(mean(encBytes), "B")
	m["engine.snap_decode_us"] = timing(decode, 50, "us", us)
	m["engine.route_wire_ns"] = timing(routeWire, 50, "ns", id)
	m["shard.view_us"] = timing(view, 50, "us", us)
	m["shard.view_torn_share"] = val(share(torn, views), "ratio")
	m["shard.watermark_lag_epochs_p99"] = val(pct(lagEpochs.sorted(), 99), "count")
	m["sim.flood_horizon_max_ms"] = val(ms(pct(horizon.sorted(), 100)), "ms")
}

func id(v float64) float64 { return v }

// viewer is the cross-shard read surface both coordinators share.
type viewer interface {
	View() (shard.View, bool)
	Watermark() uint64
}

func viewerOf(be backend) viewer {
	switch b := be.(type) {
	case shardBE:
		return b.c
	case wireBE:
		return b.c
	}
	return nil
}

// lookupProbes times the read-side functions in a loop on seeded pairs,
// against a snapshot that carries three failures (so delta rows have an
// overlay to consult first).
func (r *run) lookupProbes(m map[string]metric) {
	g, be, prov := r.w.g, r.be, r.w.prov
	model := seededFailures(r.pop, r.o, maxDown, r.cfg.seed*1000+10)
	r.failAll(model)
	defer r.settle(model)
	ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 11)), g.Order()}
	pairs := ps.batch(layerLookups)
	snaps := be.snapshots()

	m["shard.owner_ns"] = val(timeLoop(len(pairs), func(i int) { be.owner(pairs[i].Src) }), "ns")
	var sum float64
	route := timeLoop(len(pairs), func(i int) {
		if rt := snaps[be.owner(pairs[i].Src)].Route(pairs[i].Src, pairs[i].Dst); rt != nil {
			sum += rt.Cost
		}
	})
	m["engine.route_ns"], m["engine.route_delta_ns"] = val(0, "ns"), val(0, "ns")
	if _, err := snaps[0].AppendWire(nil); err != nil {
		m["engine.route_ns"] = val(route, "ns")
	} else {
		m["engine.route_delta_ns"] = val(route, "ns")
	}
	m["engine.query_sync_ns"], m["shardrpc.remote_query_us"], m["shardrpc.flush_idle_ms"] = val(0, "ns"), val(0, "us"), val(0, "ms")
	if wb, ok := be.(wireBE); ok {
		var rq, fl samples
		for _, pr := range pairs[:layerFrames] {
			t0 := time.Now()
			if _, err := wb.c.RemoteQuery(pr.Src, pr.Dst); err == nil {
				rq.addDur(time.Since(t0))
			}
		}
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			wb.c.Flush()
			fl.addDur(time.Since(t0))
		}
		m["shardrpc.remote_query_us"] = timing(rq, 50, "us", us)
		m["shardrpc.flush_idle_ms"] = timing(fl, 50, "ms", ms)
	} else {
		m["engine.query_sync_ns"] = val(timeLoop(len(pairs), func(i int) {
			if res := be.Query(pairs[i].Src, pairs[i].Dst); res.Route != nil {
				sum += res.Route.Cost
			}
		}), "ns")
	}

	// Cold tier: on-demand solves from the base set against the same epoch.
	cold := shard.NewColdTier(g, prov.Base, maps.Clone(prov.LSPs), shard.ColdConfig{}, nil)
	var cq samples
	for _, pr := range pairs[:layerColdAsks] {
		t0 := time.Now()
		if res := cold.Query(pr.Src, pr.Dst, snaps[be.owner(pr.Src)]); res.Route != nil {
			cq.addDur(time.Since(t0))
		}
	}
	cold.Close()
	m["shard.cold_query_us"] = timing(cq, 50, "us", us)

	// Forwarding plane: copy-on-write clone and the delivery walk.
	net0 := prov.Net
	m["mpls.clone_us"] = val(us(timeLoop(50, func(int) { net0.Clone() })), "us")
	var hops, walks float64
	m["mpls.sendip_ns"] = val(timeLoop(layerLookups/10, func(i int) {
		if pkt, err := net0.SendIP(pairs[i].Src, pairs[i].Dst); err == nil {
			hops += float64(pkt.Hops)
			walks++
		}
	}), "ns")
	m["mpls.hops_per_pkt"] = val(share(hops, walks), "count")
	_ = sum
}

// transportProbes measures the bare frame round trip of the wire
// protocol (64-byte payload, echoed) over a Unix socket and over an
// in-process pipe: the floor under every process-mode request.
func (r *run) transportProbes(m map[string]metric) {
	echo := func(a, b net.Conn) metric {
		ca, cb := shardrpc.NewConn(a), shardrpc.NewConn(b)
		defer ca.Close()
		defer cb.Close()
		go func() {
			for {
				typ, fl, seq, p, err := cb.ReadFrame()
				if err != nil || cb.WriteFrame(typ, fl, seq, p) != nil {
					return
				}
			}
		}()
		payload := make([]byte, 64)
		var rtt samples
		for i := 0; i < layerFrames; i++ {
			t0 := time.Now()
			if ca.WriteFrame(1, 0, uint32(i), payload) != nil {
				break
			}
			if _, _, _, _, err := ca.ReadFrame(); err != nil {
				break
			}
			rtt.addDur(time.Since(t0))
		}
		return timing(rtt, 50, "us", us)
	}
	pa, pb := net.Pipe()
	m["shardrpc.frame_rtt_pipe_us"] = echo(pa, pb)
	m["shardrpc.frame_rtt_unix_us"] = val(0, "us")
	if os.MkdirAll(r.cfg.tmpDir, 0o755) != nil {
		return
	}
	sock := filepath.Join(r.cfg.tmpDir, "echo.sock")
	os.Remove(sock)
	l, err := net.Listen("unix", sock)
	if err != nil {
		return
	}
	defer os.Remove(sock)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	ua, err := net.Dial("unix", sock)
	if err != nil {
		return
	}
	if ub, ok := <-accepted; ok {
		m["shardrpc.frame_rtt_unix_us"] = echo(ua, ub)
	} else {
		ua.Close()
	}
}
