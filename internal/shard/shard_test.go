package shard

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

func newCoordinator(t testing.TB, g *graph.Graph, rcfg rbpc.Config, cfg Config) *Coordinator {
	t.Helper()
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys.Export(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCoordinatorMatchesSingleEngine drives the same churn through a
// 3-shard coordinator and a single engine and demands bit-identical
// answers (Float64bits costs, same LSP sequences) for every pair at every
// quiescent point.
func TestCoordinatorMatchesSingleEngine(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	single, err := engine.New(sys.Export(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	c := newCoordinator(t, g, rbpc.DefaultConfig(), Config{Shards: 3})

	rng := rand.New(rand.NewSource(7))
	edges := g.Edges()
	down := map[graph.EdgeID]bool{}
	compare := func(tag string) {
		t.Helper()
		single.Flush()
		c.Flush()
		v, ok := c.View()
		if !ok {
			t.Fatalf("%s: no consistent view after Flush", tag)
		}
		for s := 0; s < g.Order(); s++ {
			for d := 0; d < g.Order(); d++ {
				if s == d {
					continue
				}
				src, dst := graph.NodeID(s), graph.NodeID(d)
				want := single.Query(src, dst).Route
				got := v.Route(src, dst)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: %d->%d routable mismatch: sharded %v, single %v",
						tag, s, d, got != nil, want != nil)
				}
				if got == nil {
					continue
				}
				if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%s: %d->%d cost %v != %v", tag, s, d, got.Cost, want.Cost)
				}
				if len(got.LSPs) != len(want.LSPs) {
					t.Fatalf("%s: %d->%d %d components != %d", tag, s, d, len(got.LSPs), len(want.LSPs))
				}
				for i := range got.LSPs {
					if !got.LSPs[i].Path.Equal(want.LSPs[i].Path) {
						t.Fatalf("%s: %d->%d component %d path mismatch", tag, s, d, i)
					}
				}
			}
		}
	}

	compare("initial")
	for step := 0; step < 25; step++ {
		e := edges[rng.Intn(len(edges))].ID
		if down[e] {
			delete(down, e)
			single.Repair(e)
			c.Repair(e)
		} else if len(down) < 3 {
			down[e] = true
			single.Fail(e)
			c.Fail(e)
		}
		if step%5 == 4 {
			compare("churn")
		}
	}
	compare("final")
}

// TestColdPairMatchesMaterialized provisions only a third of the sources
// hot and checks that cold-pair answers (on-demand Corollary-4 solves)
// cost-match a fully materialized engine.
func TestColdPairMatchesMaterialized(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	hot := []graph.NodeID{0, 1, 2, 3}
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = hot
	c := newCoordinator(t, g, rcfg, Config{Shards: 2})

	fullSys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := engine.New(fullSys.Export(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	check := func(tag string) {
		t.Helper()
		for s := 0; s < g.Order(); s++ {
			for d := 0; d < g.Order(); d++ {
				if s == d {
					continue
				}
				src, dst := graph.NodeID(s), graph.NodeID(d)
				got := c.Query(src, dst).Route
				want := full.Query(src, dst).Route
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: %d->%d routable mismatch: sharded %v, full %v",
						tag, s, d, got != nil, want != nil)
				}
				if got != nil && math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%s: %d->%d cost %v != %v", tag, s, d, got.Cost, want.Cost)
				}
			}
		}
	}

	check("initial")
	e := g.Edges()[0].ID
	c.Fail(e)
	full.Fail(e)
	c.Flush()
	full.Flush()
	check("one failure")
	c.Repair(e)
	full.Repair(e)
	c.Flush()
	full.Flush()
	check("repaired")

	st := c.Stats()
	if st.Cold.Queries == 0 || st.Cold.Solved == 0 {
		t.Fatalf("cold tier never exercised: %+v", st.Cold)
	}
	if st.RowBytes >= st.DenseRowBytes {
		t.Fatalf("hot-set sharding should shrink resident rows: resident %d, dense %d",
			st.RowBytes, st.DenseRowBytes)
	}
}

// TestColdPromotion drives one cold pair past PromoteAfter and checks the
// promoted cache starts serving it.
func TestColdPromotion(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 2)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0}
	c := newCoordinator(t, g, rcfg, Config{Shards: 2, Cold: ColdConfig{PromoteAfter: 2}})

	src, dst := graph.NodeID(5), graph.NodeID(7)
	var first *engine.Route
	for i := 0; i < 6; i++ {
		rt := c.Query(src, dst).Route
		if rt == nil {
			t.Fatalf("query %d: cold pair unroutable on a connected graph", i)
		}
		if first == nil {
			first = rt
		} else if math.Float64bits(rt.Cost) != math.Float64bits(first.Cost) {
			t.Fatalf("query %d: cost drifted %v -> %v", i, first.Cost, rt.Cost)
		}
	}
	st := c.Stats().Cold
	if st.Promotions == 0 {
		t.Fatalf("no promotion after %d identical queries: %+v", 6, st)
	}
	if st.PromotedHits == 0 {
		t.Fatalf("promoted cache never hit: %+v", st)
	}
	if st.Solved >= st.Queries {
		t.Fatalf("every query solved — cache not serving: %+v", st)
	}
}

// TestCoordinatorSubmitBatchAndDrain checks async fan-out: every accepted
// query is answered through OnResult before Drain returns, including the
// cold diversions.
func TestCoordinatorSubmitBatchAndDrain(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3, 4, 5}
	var answered atomic.Int64
	cfg := Config{Shards: 3}
	cfg.Engine.OnResult = func(engine.Result) { answered.Add(1) }
	c := newCoordinator(t, g, rcfg, cfg)

	var pairs []rbpc.Pair
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s != d {
				pairs = append(pairs, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
			}
		}
	}
	accepted := c.SubmitBatch(pairs)
	c.Drain()
	if got := answered.Load(); got != int64(accepted) {
		t.Fatalf("accepted %d queries but %d answers arrived before Drain returned", accepted, got)
	}
	if accepted < len(pairs)/2 {
		t.Fatalf("only %d of %d queries accepted", accepted, len(pairs))
	}
}

// TestWatermarkAdvances checks the low watermark tracks the slowest shard.
func TestWatermarkAdvances(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 6)
	c := newCoordinator(t, g, rbpc.DefaultConfig(), Config{Shards: 2})
	if w := c.Watermark(); w != 0 {
		t.Fatalf("fresh coordinator watermark %d, want 0", w)
	}
	e := g.Edges()[0].ID
	c.Fail(e)
	c.Flush()
	if w := c.Watermark(); w == 0 {
		t.Fatal("watermark did not advance after a flushed failure")
	}
}

// TestSkewFaultBreaksView checks the injected shard-skew defect is
// observable: shard 0 stops tracking failures, so consistent views become
// impossible while a failure is outstanding.
func TestSkewFaultBreaksView(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 6)
	skewed := Config{Shards: 2}
	skewed.Engine.Fault = engine.FaultSkewShard
	c := newCoordinator(t, g, rbpc.DefaultConfig(), skewed)
	c.Fail(g.Edges()[0].ID)
	c.Flush()
	if _, ok := c.View(); ok {
		t.Fatal("skewed shards produced a consistent view — fault not observable")
	}
}

// TestNonSourceSchemeRejected: sharded serving is source-scheme only, and
// the library says so itself — New (and Over, for a caller bringing its
// own workers) return an error instead of building replicas that lack
// the local plan and flood horizons.
func TestNonSourceSchemeRejected(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 6)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []engine.Scheme{engine.SchemeLocal, engine.SchemeBypass, engine.SchemeHybrid} {
		cfg := Config{Shards: 2}
		cfg.Engine.Scheme = sch
		if c, err := New(sys.Export(), cfg); err == nil {
			c.Close()
			t.Fatalf("New accepted scheme %v", sch)
		}
		ring, err := NewRing(cfg.Shards, cfg.VNodes, cfg.RingSeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Over(sys.Export(), cfg, ring, nil, nil); err == nil {
			t.Fatalf("Over accepted scheme %v", sch)
		}
	}
}
