package spath

// The tests in this file pin the CSR/solver rewrite to the previous
// implementation: referenceCompute/referenceDistTo below are the
// slice-of-slices, closure-based algorithms the engine shipped with,
// copied verbatim. The property tests require the new kernel to reproduce
// their trees bit-for-bit — distances, hop counts, parents and parent
// edges — on random graphs, random failure overlays, padded views, and
// every topology generator.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rbpc/internal/graph"
	"rbpc/internal/pqueue"
	"rbpc/internal/topology"
)

func referenceCompute(v graph.View, src graph.NodeID) *Tree {
	if v.UnitWeights() {
		return referenceBFS(v, src)
	}
	return referenceDijkstra(v, src)
}

func referenceBFS(v graph.View, src graph.NodeID) *Tree {
	t := newTree(v.Order(), src)
	t.dist[src] = 0
	queue := make([]graph.NodeID, 0, 64)
	queue = append(queue, src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := t.dist[u]
		v.VisitArcs(u, func(a graph.Arc) bool {
			switch {
			case t.dist[a.To] == Unreachable:
				t.dist[a.To] = du + 1
				t.hops[a.To] = t.hops[u] + 1
				t.parent[a.To] = u
				t.parentE[a.To] = a.Edge
				queue = append(queue, a.To)
			case t.dist[a.To] == du+1:
				if betterParent(t.hops[u]+1, u, a.Edge, t.hops[a.To], t.parent[a.To], t.parentE[a.To]) {
					t.parent[a.To] = u
					t.parentE[a.To] = a.Edge
				}
			}
			return true
		})
	}
	return t
}

func referenceDijkstra(v graph.View, src graph.NodeID) *Tree {
	n := v.Order()
	t := newTree(n, src)
	t.dist[src] = 0
	h := pqueue.New(n)
	h.Push(int(src), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if du > t.dist[u] {
			continue
		}
		v.VisitArcs(u, func(a graph.Arc) bool {
			w := v.Edge(a.Edge).W
			nd := du + w
			switch {
			case nd < t.dist[a.To]:
				t.dist[a.To] = nd
				t.hops[a.To] = t.hops[u] + 1
				t.parent[a.To] = u
				t.parentE[a.To] = a.Edge
				h.PushOrDecrease(int(a.To), nd)
			case nd == t.dist[a.To]:
				if betterParent(t.hops[u]+1, u, a.Edge, t.hops[a.To], t.parent[a.To], t.parentE[a.To]) {
					t.hops[a.To] = t.hops[u] + 1
					t.parent[a.To] = u
					t.parentE[a.To] = a.Edge
				}
			}
			return true
		})
	}
	return t
}

func referenceDistTo(v graph.View, s, t graph.NodeID) (float64, int, bool) {
	if s == t {
		return 0, 0, true
	}
	if v.UnitWeights() {
		n := v.Order()
		distv := make([]int32, n)
		for i := range distv {
			distv[i] = -1
		}
		distv[s] = 0
		queue := []graph.NodeID{s}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			found := false
			v.VisitArcs(u, func(a graph.Arc) bool {
				if distv[a.To] == -1 {
					distv[a.To] = distv[u] + 1
					if a.To == t {
						found = true
						return false
					}
					queue = append(queue, a.To)
				}
				return true
			})
			if found {
				return float64(distv[t]), int(distv[t]), true
			}
		}
		return Unreachable, 0, false
	}
	n := v.Order()
	dist := make([]float64, n)
	hops := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	h := pqueue.New(n)
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if du > dist[u] {
			continue
		}
		if u == t {
			return dist[t], int(hops[t]), true
		}
		v.VisitArcs(u, func(a graph.Arc) bool {
			nd := du + v.Edge(a.Edge).W
			switch {
			case nd < dist[a.To]:
				dist[a.To] = nd
				hops[a.To] = hops[u] + 1
				h.PushOrDecrease(int(a.To), nd)
			case nd == dist[a.To] && hops[u]+1 < hops[a.To]:
				hops[a.To] = hops[u] + 1
			}
			return true
		})
	}
	return Unreachable, 0, false
}

// sameTree reports whether two trees agree exactly on every node.
func sameTree(t *testing.T, got, want *Tree, n int, context string) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: source %d != %d", context, got.Source, want.Source)
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if got.Dist(id) != want.Dist(id) {
			t.Fatalf("%s: dist[%d] = %v, want %v", context, v, got.Dist(id), want.Dist(id))
		}
		if got.Hops(id) != want.Hops(id) {
			t.Fatalf("%s: hops[%d] = %d, want %d", context, v, got.Hops(id), want.Hops(id))
		}
		gp, ge := got.Parent(id)
		wp, we := want.Parent(id)
		if gp != wp || ge != we {
			t.Fatalf("%s: parent[%d] = (%d,%d), want (%d,%d)", context, v, gp, ge, wp, we)
		}
	}
}

// randomView wraps a random graph in a random overlay: sometimes bare,
// sometimes a FailureView with random removed edges and nodes, sometimes
// padded on top.
func randomView(rng *rand.Rand, g *graph.Graph) graph.View {
	var v graph.View = g
	if rng.Intn(2) == 0 {
		var edges []graph.EdgeID
		var nodes []graph.NodeID
		for i := 0; i < g.Size(); i++ {
			if rng.Intn(8) == 0 {
				edges = append(edges, graph.EdgeID(i))
			}
		}
		for i := 0; i < g.Order(); i++ {
			if rng.Intn(12) == 0 {
				nodes = append(nodes, graph.NodeID(i))
			}
		}
		v = graph.Fail(g, edges, nodes)
	}
	if rng.Intn(3) == 0 {
		v = Padded(v, PaddingFor(g))
	}
	return v
}

// TestQuickKernelMatchesReference is the old-vs-new equivalence property:
// the CSR/solver Compute must reproduce the reference trees exactly on
// random graphs under random failure overlays and padding, and DistTo must
// agree with its reference too.
func TestQuickKernelMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		weights := intWeights(rng, 5)
		if rng.Intn(2) == 0 {
			weights = func() float64 { return 1 } // exercise the BFS path too
		}
		g := randomConnected(rng, n, rng.Intn(2*n), weights)
		v := randomView(rng, g)
		for trial := 0; trial < 4; trial++ {
			src := graph.NodeID(rng.Intn(n))
			got := Compute(v, src)
			want := referenceCompute(v, src)
			sameTree(t, got, want, n, "compute")

			dst := graph.NodeID(rng.Intn(n))
			gd, gh, gok := DistTo(v, src, dst)
			wd, wh, wok := referenceDistTo(v, src, dst)
			if gd != wd || gh != wh || gok != wok {
				t.Fatalf("DistTo(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", src, dst, gd, gh, gok, wd, wh, wok)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKernelMatchesReferenceOnGenerators runs the same equivalence over
// every topology generator in internal/topology, bare and under a failure
// overlay.
func TestKernelMatchesReferenceOnGenerators(t *testing.T) {
	gens := []struct {
		name string
		g    *graph.Graph
	}{
		{"Line", topology.Line(12)},
		{"Ring", topology.Ring(9)},
		{"Grid", topology.Grid(4, 5)},
		{"Complete", topology.Complete(7)},
		{"RandomTree", topology.RandomTree(30, 3)},
		{"Waxman", topology.Waxman(40, 0.7, 0.4, 3)},
		{"BarabasiAlbert", topology.BarabasiAlbert(40, 2, 3)},
		{"PowerLawExtra", topology.PowerLawExtra(40, 2, 100, 3)},
		{"ISP", topology.ISP(topology.DefaultISP(), 3)},
		{"ISPUnit", topology.UnitWeightCopy(topology.ISP(topology.DefaultISP(), 3))},
		{"ISPAsym", topology.AsymmetricCopy(topology.ISP(topology.DefaultISP(), 3), 3, 2)},
		{"PaperAS", topology.PaperAS(3, 0.05)},
		{"PaperInternet", topology.PaperInternet(3, 0.01)},
		{"Comb", topology.Comb(3).G},
		{"WeightedTight", topology.WeightedTight(3).G},
		{"ParallelChain", topology.ParallelChain(4)},
		{"DirectedCounterexample", topology.DirectedCounterexample(3).G},
	}
	for _, tc := range gens {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			rng := rand.New(rand.NewSource(42))
			views := []struct {
				name string
				v    graph.View
			}{
				{"bare", g},
				{"failed", graph.Fail(g,
					[]graph.EdgeID{0, graph.EdgeID(g.Size() / 2)},
					[]graph.NodeID{graph.NodeID(g.Order() - 1)})},
			}
			if !g.Directed() {
				views = append(views, struct {
					name string
					v    graph.View
				}{"padded", Padded(g, PaddingFor(g))})
			}
			for _, vc := range views {
				for trial := 0; trial < 4; trial++ {
					src := graph.NodeID(rng.Intn(g.Order()))
					got := Compute(vc.v, src)
					want := referenceCompute(vc.v, src)
					sameTree(t, got, want, g.Order(), tc.name+"/"+vc.name)
				}
			}
		})
	}
}

// TestSolverReuseAcrossViews reuses a single solver across views of
// different graphs and sizes, interleaved, checking against references.
func TestSolverReuseAcrossViews(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver(0)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(50)
		g := randomConnected(rng, n, rng.Intn(2*n), intWeights(rng, 4))
		v := randomView(rng, g)
		src := graph.NodeID(rng.Intn(n))
		s.Solve(v, src)
		want := referenceCompute(v, src)
		sameTree(t, s.Tree(), want, n, "reused solver")
		// Spot-check the accessor views against the materialized tree.
		probe := graph.NodeID(rng.Intn(n))
		if s.Dist(probe) != want.Dist(probe) || s.Hops(probe) != want.Hops(probe) {
			t.Fatalf("solver accessors diverge at %d", probe)
		}
		sp, se := s.Parent(probe)
		wp, we := want.Parent(probe)
		if sp != wp || se != we {
			t.Fatalf("solver Parent(%d) = (%d,%d), want (%d,%d)", probe, sp, se, wp, we)
		}
		gp, gok := s.PathTo(probe)
		pp, pok := want.PathTo(probe)
		if gok != pok || (gok && !gp.Equal(pp)) {
			t.Fatalf("solver PathTo(%d) = %v,%v want %v,%v", probe, gp, gok, pp, pok)
		}
	}
}

// TestSolverGenerationWraparound forces the generation counter over the
// uint32 boundary and checks stale labels do not leak through.
func TestSolverGenerationWraparound(t *testing.T) {
	g := lineGraph(5)
	s := NewSolver(g.Order())
	s.Solve(g, 0)
	s.cur = ^uint32(0) - 1 // two solves away from wrapping
	for i := 0; i < 4; i++ {
		src := graph.NodeID(i % g.Order())
		s.Solve(g, src)
		sameTree(t, s.Tree(), referenceCompute(g, src), g.Order(), "wraparound")
	}
}

// TestSolverRemovedSource matches the reference on a failure view whose
// source or target is itself removed.
func TestSolverRemovedSource(t *testing.T) {
	g := lineGraph(4)
	fv := graph.FailNodes(g, 1)
	for src := 0; src < 4; src++ {
		got := Compute(fv, graph.NodeID(src))
		want := referenceCompute(fv, graph.NodeID(src))
		sameTree(t, got, want, 4, "removed source")
	}
	if _, _, ok := DistTo(fv, 1, 3); ok {
		t.Error("DistTo from removed source should fail")
	}
}

// foreignView hides the concrete type of a view, so graph.CompileView
// cannot lower it.
type foreignView struct{ graph.View }

// TestForeignViewPanics: every search runs on the CSR kernel, and a view it
// cannot be lowered to is refused loudly — a panic naming the type — bare
// and under padding, instead of being searched by some slower arm.
func TestForeignViewPanics(t *testing.T) {
	g := lineGraph(4)
	for name, search := range map[string]func(graph.View){
		"Compute": func(v graph.View) { Compute(v, 0) },
		"DistTo":  func(v graph.View) { DistTo(v, 0, 3) },
	} {
		for _, v := range []graph.View{foreignView{g}, Padded(foreignView{g}, PaddingFor(g))} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "foreignView") {
						t.Errorf("%s on %T: recovered %q, want a panic naming the view's type", name, v, msg)
					}
				}()
				search(v)
			}()
		}
	}
}

// TestOracleClockEviction: under a cap, repeatedly hit trees keep their
// reference bits set and survive the sweep; cold trees are evicted first.
func TestOracleClockEviction(t *testing.T) {
	g := lineGraph(10)
	o := NewOracle(g)
	o.SetCap(3)
	o.Tree(0)
	o.Tree(1)
	o.Tree(2)
	// Make 0 hot: its ref bit is set by the extra hit.
	o.Tree(0)
	// Inserting 3 must evict someone; the clock clears 0's bit but spares
	// it, evicting the first cold entry (1).
	o.Tree(3)
	if o.CachedTrees() != 3 {
		t.Fatalf("CachedTrees = %d, want 3", o.CachedTrees())
	}
	o.mu.RLock()
	_, has0 := o.trees[0]
	_, has1 := o.trees[1]
	o.mu.RUnlock()
	if !has0 {
		t.Error("hot tree 0 was evicted before cold trees")
	}
	if has1 {
		t.Error("cold tree 1 survived while the cache is full")
	}
}

func TestOracleSetCapShrinks(t *testing.T) {
	g := lineGraph(12)
	o := NewOracle(g)
	for s := 0; s < 8; s++ {
		o.Tree(graph.NodeID(s))
	}
	o.SetCap(3)
	if got := o.CachedTrees(); got != 3 {
		t.Fatalf("CachedTrees after shrink = %d, want 3", got)
	}
	// The cap keeps holding on subsequent inserts.
	o.Tree(9)
	o.Tree(10)
	if got := o.CachedTrees(); got != 3 {
		t.Fatalf("CachedTrees after inserts = %d, want 3", got)
	}
}

// TestOracleConcurrentSetCap hammers Tree, SetCap and Precompute from many
// goroutines; run under -race this is the cache's thread-safety proof.
func TestOracleConcurrentSetCap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(rng, 50, 70, intWeights(rng, 3))
	o := NewOracle(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch {
				case i%17 == 0:
					o.SetCap(1 + (i+w)%7)
				case i%23 == 0:
					o.Precompute([]graph.NodeID{graph.NodeID(i % 50), graph.NodeID((i + w) % 50)}, 2)
				default:
					s := graph.NodeID((i * 13) % 50)
					d := graph.NodeID((i*7 + w) % 50)
					if o.Dist(s, d) == Unreachable {
						t.Error("unreachable in connected graph")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if cached, cap := o.CachedTrees(), 7; cached > cap {
		t.Errorf("cache exceeded cap: %d > %d", cached, cap)
	}
}

func TestOraclePrecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 40, 60, intWeights(rng, 4))
	o := NewOracle(g)
	sources := []graph.NodeID{0, 1, 2, 3, 3, 2} // duplicates tolerated
	if n := o.Precompute(sources, 4); n != 4 {
		t.Errorf("Precompute computed %d trees, want 4", n)
	}
	if o.CachedTrees() != 4 {
		t.Errorf("CachedTrees = %d, want 4", o.CachedTrees())
	}
	if n := o.Precompute(sources, 4); n != 0 {
		t.Errorf("second Precompute recomputed %d trees, want 0", n)
	}
	// Warmed trees match direct computation.
	for _, s := range sources {
		sameTree(t, o.Tree(s), referenceCompute(g, s), g.Order(), "precomputed")
	}
	// A capped oracle only warms up to its cap.
	o2 := NewOracle(g)
	o2.SetCap(2)
	if n := o2.Precompute([]graph.NodeID{0, 1, 2, 3}, 2); n != 2 {
		t.Errorf("capped Precompute computed %d trees, want 2", n)
	}
	if o2.CachedTrees() != 2 {
		t.Errorf("capped CachedTrees = %d, want 2", o2.CachedTrees())
	}
}
