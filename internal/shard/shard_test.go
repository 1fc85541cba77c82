package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
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

// TestBurstsAreAtomicOnEveryShard: the coordinator hands every worker a
// burst whole, and every worker's engine publishes it as one transition.
// Three disjoint three-link groups are failed and repaired as bursts, no
// barrier between the groups, and every epoch any worker publishes must
// hold all or none of each group's links.
func TestBurstsAreAtomicOnEveryShard(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	groups := [][]graph.EdgeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	var mu sync.Mutex // the workers' writers tap concurrently
	epochs := 0
	var torn error
	cfg := Config{Shards: 3}
	cfg.Engine.OnEpoch = func(s *engine.Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		epochs++
		for _, grp := range groups {
			n := 0
			for _, ed := range grp {
				if slices.Contains(s.Failed(), ed) {
					n++
				}
			}
			if n != 0 && n != len(grp) && torn == nil {
				torn = fmt.Errorf("an epoch %d fails %v: part of burst %v", s.Epoch(), s.Failed(), grp)
			}
		}
	}
	c := newCoordinator(t, g, rbpc.DefaultConfig(), cfg)
	const rounds = 100
	burst := make([]failure.Event, 3)
	for range rounds {
		for _, repair := range []bool{false, true} {
			for _, grp := range groups {
				for i, ed := range grp {
					burst[i] = failure.Event{Repair: repair, Edge: ed}
				}
				c.ApplyEvents(burst) // reused: every engine copies it
			}
			c.Flush()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if torn != nil {
		t.Fatal(torn)
	}
	if epochs < 2*rounds*c.Shards() {
		t.Fatalf("%d epochs published by %d workers over %d rounds", epochs, c.Shards(), rounds)
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
		owners, err := NewOwners(cfg.Shards, g.Order())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Over(sys.Export(), cfg, owners, nil, nil); err == nil {
			t.Fatalf("Over accepted scheme %v", sch)
		}
	}
}

// TestNewRequiresEdgeLSPs: the cold tier answers from the provision's LSP
// table and the shard engines resolve through it, so New refuses a
// provision in which some link has no 1-hop base path — here the link that
// is dearer than the way round it — naming the field that provisions one.
func TestNewRequiresEdgeLSPs(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	sys, err := rbpc.NewSystem(g, rbpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys.Export(), Config{Shards: 2})
	if err == nil {
		c.Close()
		t.Fatal("New accepted a provision without EdgeLSPs")
	}
	if !strings.Contains(err.Error(), "rbpc.Config.EdgeLSPs") {
		t.Fatalf("New: %v; the error does not name rbpc.Config.EdgeLSPs", err)
	}
}

// everyPairTwice is the burst the exactly-once tests share: every ordered
// pair of the topology, self-pairs included, and every third one again.
func everyPairTwice(n int) []rbpc.Pair {
	var pairs []rbpc.Pair
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			pr := rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)}
			pairs = append(pairs, pr)
			if (s*n+d)%3 == 0 {
				pairs = append(pairs, pr)
			}
		}
	}
	return pairs
}

// TestSharedBatchExactlyOnce: the pool and the cold tier are handed the
// same slice, so the burst is safe only if every pair is answered by exactly
// one party — the pool, off its owner's snapshot, when the source is
// materialized, the cold tier when it is not.
func TestSharedBatchExactlyOnce(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	hot := make(map[graph.NodeID]bool)
	for _, s := range rcfg.Sources {
		hot[s] = true
	}
	for _, shards := range []int{3, 8} {
		var mu sync.Mutex
		answered := make(map[rbpc.Pair][]uint64)            // cost bits of every answer, by pair
		snapOf := make(map[graph.NodeID][]*engine.Snapshot) // the snapshot of every answer, by source
		cfg := Config{Shards: shards}
		cfg.Engine.OnResult = func(r engine.Result) {
			bits := uint64(0)
			if r.Route != nil {
				bits = math.Float64bits(r.Route.Cost)
			}
			mu.Lock()
			answered[rbpc.Pair{Src: r.Src, Dst: r.Dst}] = append(answered[rbpc.Pair{Src: r.Src, Dst: r.Dst}], bits)
			snapOf[r.Src] = append(snapOf[r.Src], r.Snap)
			mu.Unlock()
		}
		c := newCoordinator(t, g, rcfg, cfg)
		c.Fail(g.Edges()[0].ID)
		c.Flush()

		pairs := everyPairTwice(g.Order())
		sent := make(map[rbpc.Pair]int)
		var hotPairs, cold int64
		for _, pr := range pairs {
			sent[pr]++
			if hot[pr.Src] {
				hotPairs++
			} else {
				cold++
			}
		}
		before := c.Stats()
		if got := c.SubmitBatch(pairs); got != len(pairs) {
			t.Fatalf("shards=%d: %d of %d pairs accepted", shards, got, len(pairs))
		}
		c.Drain()
		after := c.Stats()

		if got := (after.Queries - after.Cold.Queries) - (before.Queries - before.Cold.Queries); got != hotPairs {
			t.Errorf("shards=%d: the pool answered %d queries, %d pairs have a hot source", shards, got, hotPairs)
		}
		if got := after.Cold.Queries - before.Cold.Queries; got != cold {
			t.Errorf("shards=%d: the cold tier took %d queries, %d pairs have a cold source", shards, got, cold)
		}
		if got := after.Queries - before.Queries; got != int64(len(pairs)) {
			t.Errorf("shards=%d: Stats().Queries rose by %d for %d pairs", shards, got, len(pairs))
		}
		mu.Lock()
		for pr, n := range sent {
			if len(answered[pr]) != n {
				t.Errorf("shards=%d: pair %v sent %d times, answered %d times", shards, pr, n, len(answered[pr]))
			}
		}
		if len(answered) != len(sent) {
			t.Errorf("shards=%d: answers for %d distinct pairs, %d were sent", shards, len(answered), len(sent))
		}
		for src, snaps := range snapOf {
			owner := c.Shard(c.Owner(src)).Snapshot()
			for _, s := range snaps {
				if s != owner {
					t.Fatalf("shards=%d: source %d answered from epoch %d of another snapshot, not its owner's", shards, src, s.Epoch())
				}
			}
		}
		mu.Unlock()
		for pr, costs := range answered {
			var want uint64
			if rt := c.Query(pr.Src, pr.Dst).Route; rt != nil {
				want = math.Float64bits(rt.Cost)
			}
			for _, got := range costs {
				if got != want {
					t.Fatalf("shards=%d: pair %v answered with cost bits %x, Query says %x", shards, pr, got, want)
				}
			}
		}
	}
}

// TestPoolReadsEachOwnersSnapshot: the pool answers each pair off its own
// source's owner, in a burst and in Query. Worker 0 never learns of the
// failure (FaultSkewShard), so its sources must answer from its stale
// pristine epoch and every other source from the post-failure one; a pool
// that read one slot for every pair would answer all of them from one
// epoch.
func TestPoolReadsEachOwnersSnapshot(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	var mu sync.Mutex
	var got []engine.Result
	cfg := Config{Shards: 3}
	cfg.Engine.Fault = engine.FaultSkewShard
	cfg.Engine.OnResult = func(r engine.Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}
	c := newCoordinator(t, g, rbpc.DefaultConfig(), cfg)
	ed := g.Edges()[0].ID
	c.Fail(ed)
	c.Flush()
	if f := c.Shard(0).Snapshot().Failed(); len(f) != 0 {
		t.Fatalf("skewed worker 0 serves failed set %v, want it pristine", f)
	}
	pairs := everyPairTwice(g.Order())
	if acc := c.SubmitBatch(pairs); acc != len(pairs) {
		t.Fatalf("%d of %d pairs accepted", acc, len(pairs))
	}
	c.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(pairs) {
		t.Fatalf("%d answers for %d pairs", len(got), len(pairs))
	}
	for _, r := range got {
		owner := c.Owner(r.Src)
		if r.Snap != c.Shard(owner).Snapshot() {
			t.Fatalf("pair %d->%d answered from epoch %d, not from its owner %d's snapshot (epoch %d)",
				r.Src, r.Dst, r.Snap.Epoch(), owner, c.Shard(owner).Snapshot().Epoch())
		}
		if stale := !slices.Contains(r.Snap.Failed(), ed); stale != (owner == 0) {
			t.Fatalf("pair %d->%d of worker %d answered under failed set %v", r.Src, r.Dst, owner, r.Snap.Failed())
		}
		if q := c.Query(r.Src, r.Dst); q.Snap != r.Snap {
			t.Fatalf("Query(%d, %d) answered from epoch %d, the burst from its owner's epoch %d", r.Src, r.Dst, q.Snap.Epoch(), r.Snap.Epoch())
		}
	}
}

// TestAffectedPairsMatchEngine: over a hot-set provision, the coordinator
// lists for every link exactly a lone engine's affected pairs, order
// included.
func TestAffectedPairsMatchEngine(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 11)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{1, 2, 4, 7, 8, 11, 13}
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	c, err := New(p, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, err := engine.New(p, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	some := false
	for ed := range p.Graph.Size() {
		want := e.AffectedPairs(graph.EdgeID(ed))
		some = some || len(want) > 0
		if got := c.AffectedPairs(graph.EdgeID(ed)); !slices.Equal(got, want) {
			t.Fatalf("link %d: affected pairs %v, a lone engine's %v", ed, got, want)
		}
	}
	if !some {
		t.Fatal("vacuous: no link has an affected pair")
	}
}

// TestSubmitBatchAllocs: with every source hot, a burst costs the
// coordinator no allocation — no buckets, no copies, nothing but the
// caller's slice handed on — and, holding no scratch of its own, it may be
// called from several goroutines at once.
func TestSubmitBatchAllocs(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	var answers atomic.Int64
	cfg := Config{Shards: 3}
	cfg.Engine.OnResult = func(engine.Result) { answers.Add(1) }
	c := newCoordinator(t, g, rbpc.DefaultConfig(), cfg)
	pairs := everyPairTwice(g.Order())

	var accepted atomic.Int64
	submit := func() { accepted.Add(int64(c.SubmitBatch(pairs))) }
	submit() // warm-up
	c.Drain()
	if a := testing.AllocsPerRun(50, submit); a != 0 {
		t.Errorf("SubmitBatch allocates %.1f times a burst in process, want 0", a)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				submit()
			}
		}()
	}
	wg.Wait()
	c.Drain()
	if got, want := answers.Load(), accepted.Load(); got != want {
		t.Errorf("%d answers for %d accepted queries", got, want)
	}
}

// BenchmarkSubmitBatch measures a query's whole cost through the
// in-process sharded path — the coordinator's counting pass, the hand-off,
// the pool's one scan of the burst picking each pair's owner snapshot, the
// lookups — as 512-pair bursts over the pristine AS stand-in. The burst is
// scanned once whatever the shard count, so the two rows should read alike
// (DESIGN.md, the sharded read path).
func BenchmarkSubmitBatch(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	p := sys.Export()
	const burst = 512
	rng := rand.New(rand.NewSource(5))
	pool := make([]rbpc.Pair, 256*burst)
	for i := range pool {
		pool[i] = rbpc.Pair{Src: graph.NodeID(rng.Intn(g.Order())), Dst: graph.NodeID(rng.Intn(g.Order()))}
	}
	for _, shards := range []int{2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := Config{Shards: shards}
			cfg.Engine = engine.Config{Workers: 1, OnResult: func(engine.Result) {}}
			c, err := New(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			batch := func(i int) []rbpc.Pair {
				at := i % (len(pool) / burst) * burst
				return pool[at : at+burst]
			}
			if a := testing.AllocsPerRun(100, func() { c.SubmitBatch(batch(0)) }); a != 0 {
				b.Fatalf("SubmitBatch allocates %.1f times a burst, want 0", a)
			}
			c.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					c.Drain() // the generator outruns the workers: keep their queues from filling
				}
				if n := c.SubmitBatch(batch(i)); n != burst {
					b.Fatalf("burst %d: %d of %d queries accepted", i, n, burst)
				}
			}
			c.Drain()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/query")
		})
	}
}
