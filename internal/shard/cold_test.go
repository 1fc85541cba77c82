package shard

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
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
	cold := newColdTier(p.Base, p.BaseLSPs, nil)
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
	cold := newColdTier(p.Base, p.BaseLSPs, nil)
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

// pairsFrom is a burst of n pairs from the sources at and above first:
// each of those sources to node 0, then each to node 1, and so on.
func pairsFrom(g *graph.Graph, first, n int) []rbpc.Pair {
	pairs := make([]rbpc.Pair, n)
	span := g.Order() - first
	for i := range pairs {
		pairs[i] = rbpc.Pair{Src: graph.NodeID(first + i%span), Dst: graph.NodeID(i / span % g.Order())}
	}
	return pairs
}

// TestColdBurstIsOneUnit: a burst's cold part costs the cold tier one queue
// entry, however many pairs it holds, so a burst of four times the tier's
// queue bound in cold pairs is admitted whole and every pair of it is
// answered exactly once.
func TestColdBurstIsOneUnit(t *testing.T) {
	g := topology.Waxman(40, 0.8, 0.5, 4)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3}
	var mu sync.Mutex
	answered := make(map[rbpc.Pair]int)
	cfg := Config{Shards: 2}
	cfg.Engine.OnResult = func(r engine.Result) {
		mu.Lock()
		answered[rbpc.Pair{Src: r.Src, Dst: r.Dst}]++
		mu.Unlock()
	}
	c := newCoordinator(t, g, rcfg, cfg)
	c.Fail(g.Edges()[0].ID)
	c.Flush()

	// Distinct pairs: the cold sources' every destination, self-pairs too.
	pairs := pairsFrom(g, len(rcfg.Sources), (g.Order()-len(rcfg.Sources))*g.Order())
	for len(pairs) <= 4*coldQueue {
		pairs = append(pairs, pairs...)
	}
	sent := make(map[rbpc.Pair]int)
	for _, pr := range pairs {
		sent[pr]++
	}
	if got := c.SubmitBatch(pairs); got != len(pairs) {
		t.Fatalf("%d of %d cold pairs accepted", got, len(pairs))
	}
	c.Drain()
	if st := c.Stats().Cold; st.Queries != int64(len(pairs)) || st.Shed != 0 || st.Solved != int64(len(pairs)) {
		t.Fatalf("%d cold pairs submitted, the tier reports %+v", len(pairs), st)
	}
	mu.Lock()
	defer mu.Unlock()
	for pr, n := range sent {
		if answered[pr] != n {
			t.Fatalf("pair %v sent %d times, answered %d times", pr, n, answered[pr])
		}
	}
	if len(answered) != len(sent) {
		t.Fatalf("answers for %d distinct pairs, %d were sent", len(answered), len(sent))
	}
}

// TestColdShedsABurstWhole: with the tier's workers held in OnResult and
// their queues full, the next burst's cold part is shed as one unit — all
// of its cold pairs, counted once in Dropped and in Cold.Shed — while the
// same burst's hot part is still admitted; once the workers are let go,
// every admitted pair is answered.
func TestColdShedsABurstWhole(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3, 4, 5}
	const nHot, nCold = 6, 8
	entered, release := make(chan struct{}, coldWorkers), make(chan struct{})
	var letGo sync.Once
	free := func() { letGo.Do(func() { close(release) }) }
	var hotAnswers, coldAnswers atomic.Int64
	cfg := Config{Shards: 2}
	cfg.Engine.OnResult = func(r engine.Result) {
		if int(r.Src) < nHot {
			hotAnswers.Add(1)
			return
		}
		if coldAnswers.Add(1) <= coldWorkers {
			entered <- struct{}{}
		}
		<-release
	}
	c := newCoordinator(t, g, rcfg, cfg)
	defer free() // ahead of the coordinator's Close, which waits for the pool

	burst := append(pairsFrom(g, 0, nHot), pairsFrom(g, nHot, nCold)...)
	submit := func(want int) {
		t.Helper()
		if got := c.SubmitBatch(burst); got != want {
			t.Fatalf("a burst of %d hot and %d cold pairs: %d accepted, want %d", nHot, nCold, got, want)
		}
	}
	for range coldWorkers {
		submit(nHot + nCold)
	}
	for range coldWorkers {
		<-entered // each worker holds one burst's cold part
	}
	for range coldQueue {
		submit(nHot + nCold)
	}
	before := c.Stats()
	submit(nHot)
	after := c.Stats()
	if got := after.Dropped - before.Dropped; got != nCold {
		t.Errorf("the shed burst added %d to Dropped, want its %d cold pairs", got, nCold)
	}
	if got := after.Cold.Shed - before.Cold.Shed; got != nCold {
		t.Errorf("the shed burst added %d to Cold.Shed, want %d", got, nCold)
	}

	free()
	c.Drain()
	bursts := int64(coldWorkers + coldQueue)
	if got := coldAnswers.Load(); got != bursts*nCold {
		t.Errorf("%d cold answers for %d admitted cold pairs", got, bursts*nCold)
	}
	if got := hotAnswers.Load(); got != (bursts+1)*nHot {
		t.Errorf("%d hot answers for %d admitted hot pairs", got, (bursts+1)*nHot)
	}
}

// TestColdDrainIsExact: bursts with cold parts and synchronous cold
// queries from several goroutines at once, then Drain: every cold pair the
// tier admitted has been answered by the time Drain returns, none twice.
func TestColdDrainIsExact(t *testing.T) {
	g := topology.Waxman(24, 0.8, 0.5, 7)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3, 4, 5}
	var coldAnswers atomic.Int64
	cfg := Config{Shards: 2}
	cfg.Engine.OnResult = func(r engine.Result) {
		if int(r.Src) >= len(rcfg.Sources) {
			coldAnswers.Add(1)
		}
	}
	c := newCoordinator(t, g, rcfg, cfg)
	c.Fail(g.Edges()[0].ID)
	c.Flush()

	var wg sync.WaitGroup
	var asked atomic.Int64
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			burst := append(pairsFrom(g, 0, len(rcfg.Sources)), pairsFrom(g, len(rcfg.Sources), 26+w)...)
			for i := range 40 {
				c.SubmitBatch(burst)
				if i%8 == 0 {
					c.Query(graph.NodeID(g.Order()-1-w), graph.NodeID(i%g.Order()))
					asked.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	c.Drain()
	st := c.Stats().Cold
	if got, want := coldAnswers.Load(), st.Queries-st.Shed-asked.Load(); got != want {
		t.Fatalf("%d cold answers delivered after Drain, %d cold burst pairs admitted (%+v, %d asked synchronously)",
			got, want, st, asked.Load())
	}
	if st.Solved != st.Queries-st.Shed {
		t.Fatalf("the tier solved %d of %d admitted pairs (%+v)", st.Solved, st.Queries-st.Shed, st)
	}
}
