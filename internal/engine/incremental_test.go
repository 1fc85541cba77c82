package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

// sameRoute is bit-level route equality: routability, cost bits, and the
// concrete node/edge sequence of every component LSP. Label stacks are
// deliberately not compared — label numbers depend on signaling order,
// which the equivalence contract does not cover.
func sameRoute(a, b *Route) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || len(a.LSPs) != len(b.LSPs) {
		return false
	}
	for i := range a.LSPs {
		if !a.LSPs[i].Path.Equal(b.LSPs[i].Path) {
			return false
		}
	}
	return true
}

// TestIncrementalBitIdenticalToFullRebuild drives the same random churn —
// single events and multi-event bursts — through an incremental engine and
// a FullRebuild reference engine, and demands bit-identical serving state
// after every flush: same failed-set, same per-pair routability, cost
// bits, and LSP path sequences, same post-failure distances — and, on each
// engine, a Send that pushes the served routes' stacks. This is the
// tentpole claim of the incremental epoch builder: reuse is only legal
// when a from-scratch build would reproduce the plan exactly.
func TestIncrementalBitIdenticalToFullRebuild(t *testing.T) {
	g := topology.Waxman(18, 0.8, 0.5, 21)
	inc, _ := newEngine(t, g, Config{})
	ref, _ := newEngine(t, g, Config{FullRebuild: true})

	events := failure.ChurnSchedule(g, 60, 4, rand.New(rand.NewSource(7)))
	rng := rand.New(rand.NewSource(9))
	step := 0
	for i := 0; i < len(events); step++ {
		n := 1 + rng.Intn(3)
		if i+n > len(events) {
			n = len(events) - i
		}
		burst := events[i : i+n]
		i += n
		inc.ApplyEvents(burst)
		ref.ApplyEvents(burst)
		inc.Flush()
		ref.Flush()

		si, sr := inc.Snapshot(), ref.Snapshot()
		if failedKey(si.Failed()) != failedKey(sr.Failed()) {
			t.Fatalf("step %d: failed-sets diverged: %v vs %v", step, si.Failed(), sr.Failed())
		}
		sendDeliversServed(t, si, fmt.Sprintf("step %d, incremental", step))
		sendDeliversServed(t, sr, fmt.Sprintf("step %d, reference", step))
		for s := 0; s < g.Order(); s++ {
			for d := 0; d < g.Order(); d++ {
				if s == d {
					continue
				}
				src, dst := graph.NodeID(s), graph.NodeID(d)
				a, b := si.Route(src, dst), sr.Route(src, dst)
				if !sameRoute(a, b) {
					t.Fatalf("step %d pair %d->%d: incremental %+v vs full %+v", step, s, d, a, b)
				}
			}
		}
		for k := 0; k < 12; k++ {
			src := graph.NodeID(rng.Intn(g.Order()))
			dst := graph.NodeID(rng.Intn(g.Order()))
			da, db := si.Oracle().Dist(src, dst), sr.Oracle().Dist(src, dst)
			if math.Float64bits(da) != math.Float64bits(db) {
				t.Fatalf("step %d dist %d->%d: %v vs %v", step, src, dst, da, db)
			}
		}
	}

	// The comparison is only meaningful if both engines took the paths they
	// claim: the incremental engine must have reused work, the reference
	// must have rebuilt every plan from scratch.
	ist := inc.Stats().Incremental
	if ist.FullRebuilds != 0 {
		t.Fatalf("incremental engine fell back to full rebuilds %d times", ist.FullRebuilds)
	}
	if ist.PairsReused == 0 {
		t.Fatal("incremental engine never reused a plan entry: comparison is vacuous")
	}
	if rst := ref.Stats().Incremental; rst.FullRebuilds == 0 || rst.PairsReused != 0 {
		t.Fatalf("reference engine did not run in full-rebuild mode: %+v", rst)
	}
}

// TestPlanCacheHitsUnderChurnWriterPath is the regression test for the
// zero-hit-rate finding: replaying an identical churn schedule through the
// full writer path (absorb → publish) must hit the plan cache
// on every epoch of the second pass — every failed-set was already built
// and the incremental builder must store its plans under the same keys a
// from-scratch build would.
func TestPlanCacheHitsUnderChurnWriterPath(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	e, _ := newEngine(t, g, Config{})
	events := failure.ChurnSchedule(g, 30, 3, rand.New(rand.NewSource(4)))
	run := func() {
		for _, ev := range events {
			if ev.Repair {
				e.Repair(ev.Edge)
			} else {
				e.Fail(ev.Edge)
			}
			e.Flush()
		}
	}
	run()
	st1 := e.Stats()
	if st1.PlanCacheMiss == 0 {
		t.Fatal("first pass never missed: schedule exercises nothing")
	}
	run()
	st2 := e.Stats()
	if extra := st2.PlanCacheMiss - st1.PlanCacheMiss; extra != 0 {
		t.Fatalf("replaying an identical schedule missed the plan cache %d times, want 0", extra)
	}
	if st2.PlanCacheHits <= st1.PlanCacheHits {
		t.Fatal("no plan-cache hits on revisited failed-sets")
	}
}

// TestFaultSkipRepairRescan pins the repair-rescan classification with a
// hand-built topology: pair (0,1) rides primary 0-1; failing it moves the
// pair to detour 0-2-1 (cost 2); additionally failing (0,2) forces the
// expensive detour 0-3-1 (cost 10). Repairing (0,2) — while the primary
// stays down — must re-solve the pair back to cost 2. The injected fault
// skips exactly that rescan and keeps serving the stale cost-10 detour.
func TestFaultSkipRepairRescan(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 1, 1) // A: primary
		g.AddEdge(0, 2, 1) // B
		g.AddEdge(2, 1, 1) // C
		g.AddEdge(0, 3, 5) // D
		g.AddEdge(3, 1, 5) // E
		return g
	}
	const a, b = graph.EdgeID(0), graph.EdgeID(1)

	for _, tc := range []struct {
		fault Fault
		want  float64
	}{
		{FaultNone, 2},
		{FaultSkipRepairRescan, 10},
	} {
		g := build()
		// Both failures in one burst, so one transition: the intermediate
		// set {A} is never built or cached — the later repair must go
		// through the incremental path, not a cache hit.
		e, _ := newEngine(t, g, Config{Fault: tc.fault})
		e.ApplyEvents([]failure.Event{{Edge: a}, {Edge: b}})
		e.Flush()
		if rt := e.Query(0, 1).Route; rt == nil || rt.Cost != 10 {
			t.Fatalf("fault %v: after double failure route = %+v, want cost 10", tc.fault, rt)
		}
		e.Repair(b)
		e.Flush()
		rt := e.Query(0, 1).Route
		if rt == nil || rt.Cost != tc.want {
			t.Fatalf("fault %v: after repair route = %+v, want cost %v", tc.fault, rt, tc.want)
		}
		if tc.fault == FaultNone && e.Stats().Incremental.RepairImproved == 0 {
			t.Fatal("correct engine never classified the pair as repair-improved")
		}
		e.Close()
	}
}

// TestStageTimesNameTheirPhase: the local epoch's time is LocalNanos, which
// reads 0 under SchemeSource and moves under hybrid once a failure is
// published, and a failure's solve fan-out charges both SolveNanos and
// ResolveNanos, which split its wall between them.
func TestStageTimesNameTheirPhase(t *testing.T) {
	g := topology.PaperAS(1, 0.02)
	for _, scheme := range []Scheme{SchemeSource, SchemeHybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, _ := newEngine(t, g, Config{Scheme: scheme})
			var ed graph.EdgeID = -1
			for i := 0; i < g.Size() && ed < 0; i++ {
				if len(e.AffectedPairs(graph.EdgeID(i))) > 0 && graph.Connected(graph.FailEdges(g, graph.EdgeID(i))) {
					ed = graph.EdgeID(i)
				}
			}
			if ed < 0 {
				t.Fatal("vacuous: no link carries a primary without cutting the graph")
			}
			e.ApplyEvents([]failure.Event{{Edge: ed}})
			e.Flush()
			inc := e.Stats().Incremental
			if local := inc.LocalNanos; (local > 0) != (scheme == SchemeHybrid) {
				t.Errorf("LocalNanos = %d under %s", local, scheme)
			}
			if inc.PairsRecomputed == 0 || inc.SolveNanos <= 0 || inc.ResolveNanos <= 0 {
				t.Errorf("a failure recomputed %d pairs in %d ns of solve and %d ns of resolve", inc.PairsRecomputed, inc.SolveNanos, inc.ResolveNanos)
			}
		})
	}
}
