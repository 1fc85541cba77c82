package shard

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
)

// weightedGraph is a seeded connected graph with integer weights 1..9 — the
// exact sums online serving requires (rbpc.Provision.Servable) — sparse
// enough that a few failures force detours of several base paths.
func weightedGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v), float64(1+rng.Intn(9)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(9)))
		}
	}
	return g
}

// randomFailedSet draws 1..4 distinct links, sorted as Snapshot.Failed is.
func randomFailedSet(rng *rand.Rand, g *graph.Graph) []graph.EdgeID {
	k := 1 + rng.Intn(4)
	var set []graph.EdgeID
	for len(set) < k {
		e := graph.EdgeID(rng.Intn(g.Size()))
		if !slices.Contains(set, e) {
			set = append(set, e)
		}
	}
	slices.Sort(set)
	return set
}

// moveEngine fails and repairs links until e's published failed-set is want.
func moveEngine(t *testing.T, e *engine.Engine, want []graph.EdgeID) *engine.Snapshot {
	t.Helper()
	cur := e.Snapshot().Failed()
	for _, ed := range cur {
		if !slices.Contains(want, ed) {
			e.Repair(ed)
		}
	}
	for _, ed := range want {
		if !slices.Contains(cur, ed) {
			e.Fail(ed)
		}
	}
	e.Flush()
	snap := e.Snapshot()
	if !slices.Equal(snap.Failed(), want) {
		t.Fatalf("engine at failed-set %v, want %v", snap.Failed(), want)
	}
	return snap
}

// TestColdTierMatchesDijkstra: over random failed-sets of 1–4 links, each
// reached both as an engine's published snapshot and as a decoder's
// detached one, a cold answer for random pairs and self pairs equals a
// fresh base-path Dijkstra (core.SparseSolver.From) resolved through the
// same table (engine.ResolveRoute): the same reachability, the same LSP
// pointers in order, the same cost bits. One tier serves every query, so
// its workers' liveness counts walk from failed-set to failed-set, back and
// forth. It fails as vacuous unless some answer concatenates three or more
// LSPs.
func TestColdTierMatchesDijkstra(t *testing.T) {
	g := weightedGraph(24, 10, 3)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	eng, err := engine.New(p, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dec, err := engine.NewSnapDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	cold := newColdTier(p.Base, p.BaseLSPs, ColdConfig{}, nil)
	defer cold.Close()

	rng := rand.New(rand.NewSource(11))
	n := g.Order()
	var answered, unroutable, long int
	for trial := 0; trial < 40; trial++ {
		failed := randomFailedSet(rng, g)
		snaps := map[string]*engine.Snapshot{
			"in-process": moveEngine(t, eng, failed),
			"detached":   dec.Detached(failed, uint64(trial+1)),
		}
		for _, kind := range []string{"in-process", "detached"} {
			snap := snaps[kind]
			for q := 0; q < 60; q++ {
				src, dst := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if q%20 == 0 {
					dst = src
				}
				got := cold.Query(src, dst, snap).Route
				var want *engine.Route
				decs, oks := core.NewSparseSolver(p.Base, snap.View()).From(src, []graph.NodeID{dst})
				if oks[0] {
					want = engine.ResolveRoute(p.Base, p.BaseLSPs, decs[0])
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("%s %v: %d->%d routable %v, the Dijkstra says %v", kind, failed, src, dst, got != nil, want != nil)
				}
				answered++
				if got == nil {
					unroutable++
					continue
				}
				if !slices.Equal(got.LSPs, want.LSPs) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%s %v: %d->%d answered %d LSPs at cost %v, the Dijkstra %d at %v",
						kind, failed, src, dst, len(got.LSPs), got.Cost, len(want.LSPs), want.Cost)
				}
				if len(got.LSPs) >= 3 {
					long++
				}
			}
		}
	}
	if long == 0 {
		t.Fatalf("vacuous: no answer of %d (%d unroutable) concatenates three or more LSPs", answered, unroutable)
	}
	if st := cold.Stats(); st.Solved != int64(answered) || st.Shed != 0 {
		t.Fatalf("%d queries asked, the tier reports %+v", answered, st)
	}
	t.Logf("%d answers, %d unroutable, %d of three or more LSPs", answered, unroutable, long)
}

// TestColdTierRootsNoTreeInTheSnapshot: a cold answer roots the source's
// distance row in the worker's own scratch, so answering cold pairs leaves
// the querying snapshot's oracle — uncapped, and on an engine derived
// through the writer's capped pristine oracle — exactly as it found it, on
// a live engine's snapshot and on a detached one.
func TestColdTierRootsNoTreeInTheSnapshot(t *testing.T) {
	g := weightedGraph(24, 10, 5)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	eng, err := engine.New(p, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dec, err := engine.NewSnapDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	cold := newColdTier(p.Base, p.BaseLSPs, ColdConfig{}, nil)
	defer cold.Close()

	failed := []graph.EdgeID{1, 6}
	for kind, snap := range map[string]*engine.Snapshot{
		"in-process": moveEngine(t, eng, failed),
		"detached":   dec.Detached(failed, 1),
	} {
		before := snap.Oracle().CachedTrees()
		for src := 0; src < g.Order(); src++ {
			cold.Query(graph.NodeID(src), graph.NodeID((src+7)%g.Order()), snap)
		}
		if after := snap.Oracle().CachedTrees(); after != before {
			t.Errorf("%s: the snapshot's oracle held %d trees before %d cold queries, %d after", kind, before, g.Order(), after)
		}
	}
}
