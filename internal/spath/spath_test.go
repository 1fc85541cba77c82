package spath

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"rbpc/internal/graph"
)

// lineGraph builds 0-1-2-...-n-1 with unit weights.
func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

// randomConnected builds a connected random graph: a random spanning tree
// plus extra random edges, with weights drawn from weightFn.
func randomConnected(rng *rand.Rand, n, extra int, weightFn func() float64) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := graph.NodeID(perm[i])
		v := graph.NodeID(perm[rng.Intn(i)])
		g.AddEdge(u, v, weightFn())
	}
	for i := 0; i < extra; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, weightFn())
		}
	}
	return g
}

func intWeights(rng *rand.Rand, max int) func() float64 {
	return func() float64 { return float64(1 + rng.Intn(max)) }
}

func TestLineDistances(t *testing.T) {
	g := lineGraph(5)
	tr := Compute(g, 0)
	for i := 0; i < 5; i++ {
		if got := tr.Dist(graph.NodeID(i)); got != float64(i) {
			t.Errorf("Dist(%d) = %v, want %d", i, got, i)
		}
	}
	p, ok := tr.PathTo(4)
	if !ok || p.Hops() != 4 || p.Src() != 0 || p.Dst() != 4 {
		t.Fatalf("PathTo(4) = %v, %v", p, ok)
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	tr := Compute(g, 0)
	if tr.Reached(2) {
		t.Error("node 2 should be unreachable")
	}
	if _, ok := tr.PathTo(2); ok {
		t.Error("PathTo(unreachable) returned a path")
	}
	if tr.Dist(2) != Unreachable {
		t.Errorf("Dist(2) = %v", tr.Dist(2))
	}
	if p, pe := tr.Parent(2); p != -1 || pe != -1 {
		t.Errorf("Parent(unreached) = %d,%d", p, pe)
	}
}

func TestTrivialPathToSource(t *testing.T) {
	g := lineGraph(3)
	tr := Compute(g, 1)
	p, ok := tr.PathTo(1)
	if !ok || !p.IsTrivial() || p.Src() != 1 {
		t.Fatalf("PathTo(source) = %v, %v", p, ok)
	}
}

func TestWeightedShortcut(t *testing.T) {
	// 0-1-2 each weight 1; direct 0-2 weight 3. Shortest 0->2 is via 1.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	tr := Compute(g, 0)
	if tr.Dist(2) != 2 {
		t.Errorf("Dist(2) = %v, want 2", tr.Dist(2))
	}
	p, _ := tr.PathTo(2)
	if p.Hops() != 2 {
		t.Errorf("path = %v, want 2 hops via node 1", p)
	}
}

func TestParallelEdgePicksCheaper(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	cheap := g.AddEdge(0, 1, 2)
	tr := Compute(g, 0)
	if tr.Dist(1) != 2 {
		t.Errorf("Dist = %v, want 2", tr.Dist(1))
	}
	p, _ := tr.PathTo(1)
	if p.Edges[0] != cheap {
		t.Errorf("path used edge %d, want %d", p.Edges[0], cheap)
	}
}

func TestDirectedRespectsOrientation(t *testing.T) {
	g := graph.NewDirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 1, 1)
	tr := Compute(g, 0)
	if tr.Reached(2) {
		t.Error("directed: 2 reachable from 0 against arc direction")
	}
	if !tr.Reached(1) {
		t.Error("directed: 1 should be reachable")
	}
}

func TestFailureViewChangesPath(t *testing.T) {
	// Square 0-1-2-3-0; fail edge 0-1; path 0->1 becomes 0-3-2-1.
	g := graph.New(4)
	e01 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	fv := graph.FailEdges(g, e01)
	tr := Compute(fv, 0)
	if tr.Dist(1) != 3 {
		t.Errorf("Dist(1) after failure = %v, want 3", tr.Dist(1))
	}
	p, _ := tr.PathTo(1)
	if err := p.Validate(fv); err != nil {
		t.Errorf("restored path invalid in view: %v", err)
	}
	if p.HasEdge(e01) {
		t.Error("restored path uses failed edge")
	}
}

// bfs and dijkstra force one algorithm regardless of UnitWeights, for the
// unit-weight cross-check below.
func bfs(v graph.View, src graph.NodeID) *Tree {
	s := AcquireSolver(v.Order())
	s.solveBFS(v, src)
	t := s.Tree()
	ReleaseSolver(s)
	return t
}

func dijkstra(v graph.View, src graph.NodeID) *Tree {
	s := AcquireSolver(v.Order())
	s.solveDijkstra(v, src)
	t := s.Tree()
	ReleaseSolver(s)
	return t
}

func TestBFSAndDijkstraAgreeOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := randomConnected(rng, n, rng.Intn(2*n), func() float64 { return 1 })
		if !g.UnitWeights() {
			t.Fatal("expected unit weights")
		}
		src := graph.NodeID(rng.Intn(n))
		bt := bfs(g, src)
		dt := dijkstra(g, src)
		for v := 0; v < n; v++ {
			if bt.Dist(graph.NodeID(v)) != dt.Dist(graph.NodeID(v)) {
				t.Fatalf("trial %d: dist mismatch at %d: bfs %v dijkstra %v",
					trial, v, bt.Dist(graph.NodeID(v)), dt.Dist(graph.NodeID(v)))
			}
		}
	}
}

func TestDeterministicTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 30, 40, intWeights(rng, 4))
	a := Compute(g, 5)
	b := Compute(g, 5)
	for v := 0; v < g.Order(); v++ {
		pa, _ := a.PathTo(graph.NodeID(v))
		pb, _ := b.PathTo(graph.NodeID(v))
		if !pa.Equal(pb) {
			t.Fatalf("nondeterministic tree path to %d: %v vs %v", v, pa, pb)
		}
	}
}

// TestQuickTreePathsAreShortest: every tree path's cost equals the reported
// distance, the path validates, and subpaths of shortest paths are shortest
// (the suffix-closure property RBPC relies on).
func TestQuickTreePathsAreShortest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomConnected(rng, n, rng.Intn(2*n), intWeights(rng, 5))
		src := graph.NodeID(rng.Intn(n))
		tr := Compute(g, src)
		o := NewOracle(g)
		for v := 0; v < n; v++ {
			p, ok := tr.PathTo(graph.NodeID(v))
			if !ok {
				return false // connected graph: everything reachable
			}
			if p.Validate(g) != nil || p.CostIn(g) != tr.Dist(graph.NodeID(v)) {
				return false
			}
			if !p.IsSimple() {
				return false
			}
			// Subpath closure: every contiguous subpath of a shortest path
			// is itself a shortest path between its endpoints.
			for i := 0; i <= p.Hops(); i++ {
				for j := i; j <= p.Hops(); j++ {
					sub := p.SubPath(i, j)
					if sub.CostIn(g) != o.Dist(sub.Src(), sub.Dst()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickTriangleInequality: oracle distances satisfy the triangle
// inequality d(s,t) <= d(s,m) + d(m,t) on undirected graphs.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := randomConnected(rng, n, rng.Intn(2*n), intWeights(rng, 6))
		o := NewOracle(g)
		for trial := 0; trial < 30; trial++ {
			s := graph.NodeID(rng.Intn(n))
			m := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			if o.Dist(s, d) > o.Dist(s, m)+o.Dist(m, d) {
				return false
			}
			// Undirected symmetry.
			if o.Dist(s, d) != o.Dist(d, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOracleMemoizes(t *testing.T) {
	g := lineGraph(6)
	o := NewOracle(g)
	t1 := o.Tree(0)
	t2 := o.Tree(0)
	if t1 != t2 {
		t.Error("oracle recomputed tree for same source")
	}
	if o.CachedTrees() != 1 {
		t.Errorf("CachedTrees = %d, want 1", o.CachedTrees())
	}
	o.Tree(3)
	if o.CachedTrees() != 2 {
		t.Errorf("CachedTrees = %d, want 2", o.CachedTrees())
	}
}

// TestOracleConcurrent: goroutines missing on the same roots at once all
// observe one tree per root — on a computing oracle and on a derived one,
// whose misses also race to fill (and lay out) the shared pristine oracle.
func TestOracleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 60, 80, intWeights(rng, 3))
	fv := graph.FailEdges(g, 3, 17, 40)
	for _, tc := range []struct {
		name string
		o    *Oracle
		view graph.View
	}{
		{"computed", NewOracle(g), g},
		{"derived", NewOracle(g).Derive(fv), fv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 8
			got := make([][]*Tree, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for s := 0; s < g.Order(); s++ {
						got[w] = append(got[w], tc.o.Tree(graph.NodeID(s)))
					}
				}(w)
			}
			wg.Wait()
			for s := 0; s < g.Order(); s++ {
				for w := 1; w < workers; w++ {
					if got[w][s] != got[0][s] {
						t.Fatalf("root %d: goroutines observed different trees", s)
					}
				}
				if !treesEqualBits(got[0][s], Compute(tc.view, graph.NodeID(s))) {
					t.Fatalf("root %d: oracle tree differs from Compute", s)
				}
			}
		})
	}
}

func TestIsShortest(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	long := g.AddEdge(0, 2, 5)
	o := NewOracle(g)
	sp, _ := o.Path(0, 2)
	if !o.IsShortest(sp) {
		t.Error("shortest path not recognized")
	}
	direct := graph.Path{Nodes: []graph.NodeID{0, 2}, Edges: []graph.EdgeID{long}}
	if o.IsShortest(direct) {
		t.Error("long direct edge recognized as shortest")
	}
}

func TestCountPathsGrid(t *testing.T) {
	// 2x2 grid: 0-1, 0-2, 1-3, 2-3. Two shortest paths 0->3.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	counts := CountPaths(g, 0)
	want := []uint64{1, 1, 1, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], w)
		}
	}
	if got := MaxShortestPathMultiplicity(g, []graph.NodeID{0, 1, 2, 3}); got != 2 {
		t.Errorf("MaxShortestPathMultiplicity = %d, want 2", got)
	}
}

func TestCountPathsUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	counts := CountPaths(g, 0)
	if counts[2] != 0 {
		t.Errorf("counts[unreachable] = %d, want 0", counts[2])
	}
}

func TestCountPathsParallelEdges(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	if counts := CountPaths(g, 0); counts[1] != 2 {
		t.Errorf("parallel shortest edges counted as %d, want 2", counts[1])
	}
}

func TestSatAdd(t *testing.T) {
	const max = ^uint64(0)
	if got := satAdd(max-1, 5); got != max {
		t.Errorf("satAdd overflow = %d, want saturation", got)
	}
	if got := satAdd(3, 4); got != 7 {
		t.Errorf("satAdd(3,4) = %d", got)
	}
}

func TestPaddedUniquePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		g := randomConnected(rng, n, n, func() float64 { return 1 })
		pv := Padded(g, PaddingFor(g))
		for s := 0; s < n; s++ {
			for _, c := range CountPaths(pv, graph.NodeID(s)) {
				if c > 1 {
					t.Fatalf("trial %d: padded view has %d shortest paths to some node", trial, c)
				}
			}
		}
	}
}

func TestPaddedPreservesOrder(t *testing.T) {
	// The padded shortest path must still be an unpadded shortest path.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		g := randomConnected(rng, n, n, intWeights(rng, 4))
		pv := Padded(g, PaddingFor(g))
		o := NewOracle(g)
		s := graph.NodeID(rng.Intn(n))
		pt := Compute(pv, s)
		for v := 0; v < n; v++ {
			p, ok := pt.PathTo(graph.NodeID(v))
			if !ok {
				t.Fatal("unreachable in connected graph")
			}
			if p.CostIn(g) != o.Dist(s, graph.NodeID(v)) {
				t.Fatalf("padded path cost %v != true distance %v", p.CostIn(g), o.Dist(s, graph.NodeID(v)))
			}
		}
	}
}

func TestPaddedViewBasics(t *testing.T) {
	g := lineGraph(3)
	pv := Padded(g, 0.01)
	if pv.UnitWeights() {
		t.Error("padded view claims unit weights")
	}
	if pv.Order() != 3 || pv.Directed() {
		t.Error("padded view basics wrong")
	}
	e := pv.Edge(0)
	if e.W <= 1 || e.W >= 1.01 {
		t.Errorf("padded weight %v outside (1, 1.01)", e.W)
	}
	if pv.Edge(0).W != e.W {
		t.Error("padding not deterministic")
	}
	if PaddingFor(graph.New(0)) != 0 {
		t.Error("PaddingFor(empty) != 0")
	}
}

func TestShortestPathConvenience(t *testing.T) {
	g := lineGraph(4)
	p, ok := ShortestPath(g, 0, 3)
	if !ok || p.Hops() != 3 {
		t.Fatalf("ShortestPath = %v, %v", p, ok)
	}
}

func BenchmarkDijkstraMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 2000, 4000, intWeights(rng, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g, graph.NodeID(i%g.Order()))
	}
}

func BenchmarkBFSMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 2000, 4000, func() float64 { return 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g, graph.NodeID(i%g.Order()))
	}
}
