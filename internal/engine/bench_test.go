package engine

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

var routeSink *Route

// BenchmarkSnapshotRoute isolates the read cost of the snapshot layout —
// overlay first, canonical fallback — from the queue, the metrics and the
// pipeline around it, on the benchmark's topology (the AS stand-in at
// scale 0.05). pristine reads through the nil overlay; three-down holds
// three links down, as the benchmark's saturation phase does, and reads
// the sources that then own an overlay row: hit asks for destinations the
// row overrides, miss for destinations it does not, which is what almost
// every query of such a source is.
func BenchmarkSnapshotRoute(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(sys.Export(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	pristine := e.Snapshot()
	for _, k := range []int{1, 3, 5} {
		e.Fail(graph.EdgeID(k * g.Size() / 6))
	}
	e.Flush()
	down := e.Snapshot()

	var hit, miss []rbpc.Pair
	for s, row := range down.over {
		if row == nil {
			continue
		}
		src := graph.NodeID(s)
		for d := 0; d < g.Order(); d++ {
			dst := graph.NodeID(d)
			if _, ok := row.get(dst); ok {
				hit = append(hit, rbpc.Pair{Src: src, Dst: dst})
			} else if dst != src {
				miss = append(miss, rbpc.Pair{Src: src, Dst: dst})
			}
		}
	}
	if len(hit) == 0 || len(miss) == 0 {
		b.Fatalf("three links down left %d overridden and %d canonical pairs to read", len(hit), len(miss))
	}

	run := func(name string, snap *Snapshot, pairs []rbpc.Pair) {
		b.Run(name, func(b *testing.B) {
			if a := testing.AllocsPerRun(100, func() { routeSink = snap.Route(pairs[0].Src, pairs[0].Dst) }); a != 0 {
				b.Fatalf("Snapshot.Route allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				routeSink = snap.Route(pairs[j].Src, pairs[j].Dst)
				if j++; j == len(pairs) {
					j = 0
				}
			}
		})
	}
	run("pristine", pristine, miss)
	run("three-down/hit", down, hit)
	run("three-down/miss", down, miss)

	// The hybrid engine with the same links down and the flood still out
	// (an hour's detect delay): every read tries the local plan's rows
	// first. affected pairs are answered there; unaffected ones — nearly
	// every query — must fall through at the cost of a miss filter.
	h, err := New(sys.Export(), Config{Scheme: SchemeHybrid, Flood: FloodConfig{Detect: time.Hour}})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	for _, ed := range down.Failed() {
		h.Fail(ed)
	}
	h.Flush()
	hdown := h.Snapshot()
	var affected, unaffected []rbpc.Pair
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			src, dst := graph.NodeID(s), graph.NodeID(d)
			if _, ok := hdown.LocalRoute(src, dst); ok {
				affected = append(affected, rbpc.Pair{Src: src, Dst: dst})
			} else if s != d {
				unaffected = append(unaffected, rbpc.Pair{Src: src, Dst: dst})
			}
		}
	}
	if len(affected) == 0 {
		b.Fatal("three links down affect no pair")
	}
	run("hybrid/three-down/affected", hdown, affected)
	run("hybrid/three-down/unaffected", hdown, unaffected)
}

// BenchmarkLocalPlanBuild prices a local-scheme transition with the
// failed-set at the benchmark's depth, on its topology (the AS stand-in at
// scale 0.05): the third failure of a three-link episode — a leaf, a
// middle and a core link by the number of pairs crossing them, as the
// benchmark of record draws its episodes — and that link's repair, for
// both patch flavors. Under SchemeLocal and SchemeBypass the local epoch
// is the whole transition: ns/op covers the tree derivations, the local build
// with its frozen ILM overlay and the publish — what Stats.LocalBuild
// records — and the stretch accounting that follows the publish.
func BenchmarkLocalPlanBuild(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	prov := sys.Export()
	for _, scheme := range []Scheme{SchemeLocal, SchemeBypass} {
		e, err := New(prov, Config{Scheme: scheme})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		episode := benchEpisodes(b, e, g, 1)[0]
		for _, ed := range episode[:2] {
			e.Fail(ed)
		}
		e.Flush()
		third := episode[2]
		step := func(b *testing.B, timed, untimed func(graph.EdgeID)) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				timed(third)
				e.Flush()
				b.StopTimer()
				untimed(third)
				e.Flush()
				b.StartTimer()
			}
		}
		b.Run(scheme.String()+"/third-failure", func(b *testing.B) {
			step(b, e.Fail, e.Repair)
		})
		b.Run(scheme.String()+"/its-repair", func(b *testing.B) {
			e.Fail(third)
			e.Flush()
			step(b, e.Repair, e.Fail)
			e.Repair(third)
			e.Flush()
		})
	}
}

// benchEpisodes picks n disjoint three-link episodes whose joint failure
// keeps the graph connected: the links at one, three and five sixths of the
// order by affected pairs (or their nearest unused neighbours that qualify).
func benchEpisodes(b *testing.B, e *Engine, g *graph.Graph, n int) [][]graph.EdgeID {
	links := make([]graph.EdgeID, g.Size())
	for i := range links {
		links[i] = graph.EdgeID(i)
	}
	sort.Slice(links, func(i, j int) bool {
		ai, aj := len(e.AffectedPairs(links[i])), len(e.AffectedPairs(links[j]))
		if ai != aj {
			return ai < aj
		}
		return links[i] < links[j]
	})
	used := make(map[graph.EdgeID]bool)
	episodes := make([][]graph.EdgeID, n)
	for i := range episodes {
		var episode []graph.EdgeID
		for _, k := range []int{1, 3, 5} {
			for _, ed := range links[k*len(links)/6:] {
				fv := graph.FailEdges(g, append(episode[:len(episode):len(episode)], ed)...)
				if !used[ed] && graph.Connected(fv) {
					used[ed] = true
					episode = append(episode, ed)
					break
				}
			}
		}
		if len(episode) != 3 {
			b.Fatal("no three-link episode keeps the graph connected")
		}
		episodes[i] = episode
	}
	return episodes
}

// BenchmarkServeBatch measures what one answer of a submitted burst costs a
// query worker when its consumer does what consumers do — an atomic count
// and a read of the route — on the benchmark's topology under the hybrid
// scheme with three links down. The pairs are random over the whole matrix,
// so every lookup misses the cache; serveBatch resolves a chunk before it
// delivers it so that those misses overlap instead of queueing one by one
// behind the callback's atomic.
func BenchmarkServeBatch(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	var answers, checksum atomic.Uint64
	e, err := New(sys.Export(), Config{Scheme: SchemeHybrid, OnResult: func(r Result) {
		answers.Add(1)
		if r.Route != nil {
			checksum.Add(math.Float64bits(r.Route.Cost))
		}
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, k := range []int{1, 3, 5} {
		e.Fail(graph.EdgeID(k * g.Size() / 6))
	}
	e.Flush()

	const batch = 512
	rng := rand.New(rand.NewSource(5))
	pool := make([]rbpc.Pair, 256*batch)
	for i := range pool {
		pool[i] = rbpc.Pair{Src: graph.NodeID(rng.Intn(g.Order())), Dst: graph.NodeID(rng.Intn(g.Order()))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i % (len(pool) / batch) * batch
		e.pool.serveBatch(0, queryReq{at: time.Now(), batch: pool[at : at+batch]})
	}
	b.StopTimer()
	if got := answers.Load(); got != uint64(b.N)*batch {
		b.Fatalf("%d answers for %d pairs", got, b.N*batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/answer")
}

// BenchmarkEngineQuery measures the steady-state lock-free read path under
// parallel load, with failures in place so answers cross overlay rows.
func BenchmarkEngineQuery(b *testing.B) {
	g := topology.Waxman(64, 0.8, 0.5, 13)
	e, _ := newEngine(b, g, Config{})
	e.Fail(0)
	e.Fail(3)
	e.Flush()

	n := uint64(g.Order())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			src := graph.NodeID(i % n)
			dst := graph.NodeID((i*7 + 3) % n)
			e.Query(src, dst)
		}
	})
}

// BenchmarkEpochBuild prices a phase-two transition — the writer — in the
// shape the benchmark of record drives it: the AS stand-in at scale 0.05
// under the source scheme, three-link episodes (a leaf, a middle and a core
// link) failed one link at a time and repaired in reverse, and a plan cache
// of three, which holds one episode: every failure meets a failed-set the
// cache no longer holds and is built from the previous epoch's rows (miss),
// every repair walks back through the plans its episode cached (hit). One
// op is one transition, Fail or Repair to Flush; the other half of each
// episode runs off the clock. The hybrid arms run the same schedule under
// SchemeHybrid with the benchmark of record's flood (2 ms to detect, 100 µs
// a hop): a transition is then phase one (the local plan) and phase two
// (the source plan) too.
func BenchmarkEpochBuild(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	prov := sys.Export()
	flood := FloodConfig{Detect: 2 * time.Millisecond, PerHop: 100 * time.Microsecond}
	for _, arm := range []struct {
		name    string
		repairs bool
		cfg     Config
	}{
		{"miss", false, Config{PlanCacheCap: 3}},
		{"hit", true, Config{PlanCacheCap: 3}},
		{"hybrid/miss", false, Config{PlanCacheCap: 3, Scheme: SchemeHybrid, Flood: flood}},
		{"hybrid/hit", true, Config{PlanCacheCap: 3, Scheme: SchemeHybrid, Flood: flood}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			e, err := New(prov, arm.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var cycle []failure.Event
			for _, ep := range benchEpisodes(b, e, g, 2) {
				for _, ed := range ep {
					cycle = append(cycle, failure.Event{Edge: ed})
				}
				for k := len(ep) - 1; k >= 0; k-- {
					cycle = append(cycle, failure.Event{Repair: true, Edge: ep[k]})
				}
			}
			at, applied := 0, [2]int64{} // applied[1] counts repairs
			next := func() {
				ev := cycle[at%len(cycle)]
				at++
				if ev.Repair {
					applied[1]++
				} else {
					applied[0]++
				}
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
			}
			// One cycle off the clock warms the writer's scratch and the pristine
			// trees and leaves the cache as every later cycle finds it.
			for range cycle {
				next()
			}
			st0 := e.Stats()
			applied = [2]int64{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for cycle[at%len(cycle)].Repair != arm.repairs {
					b.StopTimer()
					next()
					b.StartTimer()
				}
				next()
			}
			b.StopTimer()
			st := e.Stats()
			if miss, hit := st.PlanCacheMiss-st0.PlanCacheMiss, st.PlanCacheHits-st0.PlanCacheHits; miss != applied[0] || hit != applied[1] {
				b.Fatalf("%d failures missed the plan cache %d times, %d repairs hit it %d times", applied[0], miss, applied[1], hit)
			}
		})
	}
}

// BenchmarkEngineNew measures building an engine, and closing it, over the
// benchmark's provision (the AS stand-in at scale 0.05): full serves every
// source, half the sources of one shard of two. The canonical matrix is
// most of what New builds, so allocs/op is its cost.
func BenchmarkEngineNew(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    rbpc.Provision
	}{{"full", sys.Export()}, {"half", halfSlice(sys.Export())}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := New(tc.p, Config{})
				if err != nil {
					b.Fatal(err)
				}
				e.Close()
			}
		})
	}
}

// BenchmarkSnapDecoder measures building a snapshot decoder over the
// benchmark's provision, what every process of a sharded deployment that
// decodes replicas does once.
func BenchmarkSnapDecoder(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	p := sys.Export()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if decoderSink, err = NewSnapDecoder(p); err != nil {
			b.Fatal(err)
		}
	}
}

var decoderSink *SnapDecoder
