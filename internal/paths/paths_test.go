package paths

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rbpc/internal/graph"
)

// square returns the 4-cycle 0-1-2-3-0 with unit weights.
func square() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	return g
}

func randomConnected(rng *rand.Rand, n, extra int, maxW int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), float64(1+rng.Intn(maxW)))
	}
	for i := 0; i < extra; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(maxW)))
		}
	}
	return g
}

func TestAllShortestMembership(t *testing.T) {
	g := square()
	b := NewAllShortest(g)
	short := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}
	if !b.Contains(short) {
		t.Error("single edge on square not recognized as shortest")
	}
	long := graph.Path{Nodes: []graph.NodeID{0, 3, 2, 1}, Edges: []graph.EdgeID{3, 2, 1}}
	if b.Contains(long) {
		t.Error("3-hop path around square recognized as shortest for adjacent pair")
	}
	p, ok := b.Between(0, 2)
	if !ok || p.Hops() != 2 {
		t.Errorf("Between(0,2) = %v, %v", p, ok)
	}
	if b.View() != graph.View(g) {
		t.Error("View() mismatch")
	}
}

func TestAllShortestBothDiagonalsContained(t *testing.T) {
	// On the square both 0-1-2 and 0-3-2 are shortest: AllShortest must
	// contain both even though Between returns just one.
	g := square()
	b := NewAllShortest(g)
	via1 := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	via3 := graph.Path{Nodes: []graph.NodeID{0, 3, 2}, Edges: []graph.EdgeID{3, 2}}
	if !b.Contains(via1) || !b.Contains(via3) {
		t.Error("AllShortest missing one of the two diagonal paths")
	}
}

func TestUniqueShortestSelectsOne(t *testing.T) {
	g := square()
	b := NewUniqueShortest(g)
	via1 := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	via3 := graph.Path{Nodes: []graph.NodeID{0, 3, 2}, Edges: []graph.EdgeID{3, 2}}
	c1, c3 := b.Contains(via1), b.Contains(via3)
	if c1 == c3 {
		t.Errorf("unique base set contains via1=%v via3=%v, want exactly one", c1, c3)
	}
	p, ok := b.Between(0, 2)
	if !ok || !b.Contains(p) {
		t.Error("Between result not contained in set")
	}
	if b.View() != graph.View(g) {
		t.Error("View() should be the unpadded graph")
	}
}

// TestQuickUniqueShortestSubpathClosed: the padded-unique base set is
// subpath-closed, the property Theorem 3 and the greedy decomposition rely
// on.
func TestQuickUniqueShortestSubpathClosed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 3+rng.Intn(15), rng.Intn(20), 3)
		b := NewUniqueShortest(g)
		n := g.Order()
		for trial := 0; trial < 20; trial++ {
			s, d := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			p, ok := b.Between(s, d)
			if !ok {
				return false
			}
			for i := 0; i <= p.Hops(); i++ {
				for j := i + 1; j <= p.Hops(); j++ {
					if !b.Contains(p.SubPath(i, j)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSurvives(t *testing.T) {
	g := square()
	p := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	if !Survives(p, graph.FailEdges(g, 2)) {
		t.Error("path should survive unrelated failure")
	}
	if Survives(p, graph.FailEdges(g, 1)) {
		t.Error("path should not survive failure of its own edge")
	}
	if Survives(p, graph.FailNodes(g, 1)) {
		t.Error("path should not survive failure of interior node")
	}
	if Survives(p, graph.FailNodes(g, 0)) {
		t.Error("path should not survive failure of its source")
	}
	triv := graph.Trivial(2)
	if !Survives(triv, graph.FailNodes(g, 1)) || Survives(triv, graph.FailNodes(g, 2)) {
		t.Error("trivial path survival wrong")
	}
}

func TestExplicitAddAndIndexes(t *testing.T) {
	g := square()
	b := NewExplicit(g)
	p01 := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}
	p012 := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	if !b.Add(p01) || !b.Add(p012) {
		t.Fatal("Add returned false for new paths")
	}
	if b.Add(p01) {
		t.Error("duplicate Add returned true")
	}
	if b.Add(graph.Trivial(0)) {
		t.Error("trivial path accepted")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if !b.Contains(p012) || b.Contains(graph.Path{Nodes: []graph.NodeID{1, 2}, Edges: []graph.EdgeID{1}}) {
		t.Error("Contains wrong")
	}
	if got := b.IndicesThroughEdge(0); len(got) != 2 {
		t.Errorf("IndicesThroughEdge(0) = %v, want both paths", got)
	}
	if got := b.IndicesThroughEdge(2); len(got) != 0 {
		t.Errorf("IndicesThroughEdge(2) = %v, want none", got)
	}
}

func TestExplicitBetweenCanonical(t *testing.T) {
	g := square()
	b := NewExplicit(g)
	first := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	second := graph.Path{Nodes: []graph.NodeID{0, 3, 2}, Edges: []graph.EdgeID{3, 2}}
	b.Add(first)
	b.Add(second)
	got, ok := b.Between(0, 2)
	if !ok || !got.Equal(first) {
		t.Errorf("Between returned %v, want first-added %v", got, first)
	}
	if _, ok := b.Between(2, 0); ok {
		t.Error("Between found path for uncovered ordered pair")
	}
}

func TestFromSourcesAllPairs(t *testing.T) {
	g := square()
	all := NewAllShortest(g)
	ex := FromSources(all, []graph.NodeID{0, 1, 2, 3})
	// 4 nodes -> 12 ordered pairs, each with its path.
	for s := graph.NodeID(0); s < 4; s++ {
		for d := graph.NodeID(0); d < 4; d++ {
			p, ok := ex.Between(s, d)
			if ok != (s != d) {
				t.Fatalf("Between(%d, %d) found a path: %v", s, d, ok)
			}
			if !ok {
				continue
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("stored path invalid: %v", err)
			}
			if !all.Contains(p) {
				t.Errorf("stored path %v is not shortest", p)
			}
		}
	}
}

func TestSubpathClosure(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	b := NewExplicit(g)
	b.Add(graph.Path{Nodes: []graph.NodeID{0, 1, 2, 3}, Edges: []graph.EdgeID{0, 1, 2}})
	closed := SubpathClosure(b)
	// Subpaths of a 3-hop path: lengths 1,2,3 -> 3+2+1 = 6.
	if closed.Len() != 6 {
		t.Errorf("closure size = %d, want 6", closed.Len())
	}
	if !closed.Contains(graph.Path{Nodes: []graph.NodeID{1, 2}, Edges: []graph.EdgeID{1}}) {
		t.Error("closure missing interior subpath")
	}
}

func TestCorollary4Extend(t *testing.T) {
	g := square()
	all := NewAllShortest(g)
	ex := FromSources(all, []graph.NodeID{0, 1, 2, 3})
	extended := Corollary4Extend(ex, g)
	if extended.Len() <= ex.Len() {
		t.Errorf("extension did not grow the set: %d <= %d", extended.Len(), ex.Len())
	}
	// The extension must include a 3-hop path: e.g. canonical 0->2 plus an
	// edge out of 2 to 3... every extended path must still be valid.
	for _, p := range extended.All() {
		if err := p.Validate(g); err != nil {
			t.Fatalf("extended path %v invalid: %v", p, err)
		}
	}
	// Bound from the paper (directed variant): n(n-1) + 2m(n-1).
	n, m := g.Order(), g.Size()
	bound := n*(n-1) + 2*m*(n-1)
	if extended.Len() > bound {
		t.Errorf("extended size %d exceeds bound %d", extended.Len(), bound)
	}
}

func TestEdgePathOrientation(t *testing.T) {
	g := square()
	p := EdgePath(g, 0, 1) // edge 0 is (0,1); oriented from 1
	if p.Src() != 1 || p.Dst() != 0 {
		t.Errorf("EdgePath = %v, want 1 -> 0", p)
	}
}

// TestQuickExplicitIndexesConsistent: every index an Explicit keeps agrees
// with a linear scan of All(). Inputs are random multigraphs — parallel
// links, and a directed one in four — carrying a FromSources,
// SubpathClosure or Corollary4Extend set, with or without the 1-hop paths;
// the set is rebuilt from its own paths interleaved with re-added
// duplicates and random walks, on top of the trees of a random subset of
// the sources (FromSources) or of none. Checked: Add's verdict and the
// order it stores in, Contains, IndexBetween, EdgeComplete,
// IndicesThroughEdge, ArcIndex.Out and In, and DeadUnderInto under link
// failures and under node failures.
func TestQuickExplicitIndexesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkExplicitIndexes(rand.New(rand.NewSource(seed))); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomMultigraph is a random connected graph with parallel links, or a
// directed one with an arc each way per link plus parallel arcs.
func randomMultigraph(rng *rand.Rand, directed bool) *graph.Graph {
	base := randomConnected(rng, 4+rng.Intn(10), rng.Intn(12), 3)
	g := graph.New(base.Order())
	if directed {
		g = graph.NewDirected(base.Order())
	}
	for _, e := range base.Edges() {
		g.AddEdge(e.U, e.V, e.W)
		if directed {
			g.AddEdge(e.V, e.U, float64(1+rng.Intn(3)))
		}
	}
	for i := rng.Intn(6); i > 0; i-- {
		e := base.Edges()[rng.Intn(base.Size())]
		g.AddEdge(e.U, e.V, float64(1+rng.Intn(3)))
	}
	return g
}

// randomWalk is a path of up to four hops over random arcs, nodes not
// repeated; trivial when its start has no arc out.
func randomWalk(rng *rand.Rand, g *graph.Graph) graph.Path {
	u := graph.NodeID(rng.Intn(g.Order()))
	p := graph.Trivial(u)
	for hops := 1 + rng.Intn(4); hops > 0; hops-- {
		var arcs []graph.Arc
		g.VisitArcs(u, func(a graph.Arc) bool {
			if !p.HasNode(a.To) {
				arcs = append(arcs, a)
			}
			return true
		})
		if len(arcs) == 0 {
			break
		}
		a := arcs[rng.Intn(len(arcs))]
		p = graph.Path{Nodes: append(slices.Clone(p.Nodes), a.To), Edges: append(slices.Clone(p.Edges), a.Edge)}
		u = a.To
	}
	return p
}

func checkExplicitIndexes(rng *rand.Rand) error {
	g := randomMultigraph(rng, rng.Intn(4) == 0)
	n := g.Order()
	sources := make([]graph.NodeID, n)
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}
	built := FromSources(NewAllShortest(g), sources)
	families := []string{"FromSources", "SubpathClosure", "Corollary4Extend"}
	if g.Directed() {
		families = families[:2] // Corollary4Extend appends links both ways
	}
	family := families[rng.Intn(len(families))]
	switch family {
	case "SubpathClosure":
		built = SubpathClosure(built)
	case "Corollary4Extend":
		built = Corollary4Extend(built, g)
	}
	// The 1-hop paths: all of them, all but one, or none.
	skip := -1
	switch rng.Intn(3) {
	case 1:
		skip = rng.Intn(g.Size())
	case 2:
		skip = g.Size()
	}
	for _, e := range g.Edges() {
		if int(e.ID) < skip || skip == -1 {
			built.Add(EdgePath(g, e.ID, e.U))
			if !g.Directed() {
				built.Add(EdgePath(g, e.ID, e.V))
			}
		}
	}

	// Rebuild the set from its paths, duplicates and random walks
	// interleaved, and hold Add to the scan of what it already took.
	var seq []graph.Path
	for _, p := range built.All() {
		seq = append(seq, p)
		for rng.Intn(3) == 0 {
			seq = append(seq, seq[rng.Intn(len(seq))].Clone())
		}
		if rng.Intn(4) == 0 {
			seq = append(seq, randomWalk(rng, g))
		}
	}
	// The set starts as the trees of a random subset of the sources (none,
	// one in four), so Add meets pairs whose heads are in dense rows as
	// well as in the pair map.
	var walked []graph.NodeID
	if rng.Intn(2) == 0 {
		for _, s := range sources {
			if rng.Intn(4) == 0 {
				walked = append(walked, s)
			}
		}
	}
	ex := FromSources(NewAllShortest(g), walked)
	stored := slices.Clone(ex.All())
	for k, p := range seq {
		want := !p.IsTrivial() && !slices.ContainsFunc(stored, p.Equal)
		if got := ex.Add(p); got != want {
			return fmt.Errorf("%s: Add(seq[%d] = %v) = %v, scan says %v", family, k, p, got, want)
		}
		if want {
			stored = append(stored, p)
		}
	}
	all := ex.All()
	if !slices.EqualFunc(all, stored, graph.Path.Equal) {
		return fmt.Errorf("%s: All() holds %d paths, not the %d Add took in order", family, len(all), len(stored))
	}

	for k, p := range seq {
		want := !p.IsTrivial() && slices.ContainsFunc(all, p.Equal)
		if got := ex.Contains(p); got != want {
			return fmt.Errorf("%s: Contains(seq[%d] = %v) = %v, scan says %v", family, k, p, got, want)
		}
	}

	for s := graph.NodeID(0); int(s) < n; s++ {
		for d := graph.NodeID(0); int(d) < n; d++ {
			want := slices.IndexFunc(all, func(p graph.Path) bool { return p.Src() == s && p.Dst() == d })
			got, ok := ex.IndexBetween(s, d)
			if ok != (want >= 0) || (ok && got != want) {
				return fmt.Errorf("%s: IndexBetween(%d, %d) = %d, %v; the first stored path is %d", family, s, d, got, ok, want)
			}
		}
	}

	complete := true
	for _, e := range g.Edges() {
		ends := []graph.NodeID{e.U, e.V}
		if g.Directed() {
			ends = ends[:1]
		}
		for _, u := range ends {
			if !slices.ContainsFunc(all, EdgePath(g, e.ID, u).Equal) {
				complete = false
			}
		}
	}
	if got := ex.EdgeComplete(); got != complete {
		return fmt.Errorf("%s: EdgeComplete() = %v, scan says %v", family, got, complete)
	}

	through := make([][]int, g.Size())
	for i, p := range all {
		for _, e := range p.Edges {
			through[e] = append(through[e], i)
		}
	}
	for e := range through {
		if got := ex.IndicesThroughEdge(graph.EdgeID(e)); !slices.Equal(got, through[e]) {
			return fmt.Errorf("%s: IndicesThroughEdge(%d) = %v, scan says %v", family, e, got, through[e])
		}
	}

	ai := ex.ArcIndex()
	for u := graph.NodeID(0); int(u) < n; u++ {
		var out, in []Arc
		for i, p := range all {
			if p.Src() == u {
				out = append(out, Arc{Cost: p.CostIn(g), Peer: p.Dst(), Idx: int32(i)})
			}
			if p.Dst() == u {
				in = append(in, Arc{Cost: p.CostIn(g), Peer: p.Src(), Idx: int32(i)})
			}
		}
		if !slices.Equal(ai.Out(u), out) || !slices.Equal(ai.In(u), in) {
			return fmt.Errorf("%s: ArcIndex at %d: out %v in %v, scan says %v and %v", family, u, ai.Out(u), ai.In(u), out, in)
		}
	}

	for trial := 0; trial < 6; trial++ {
		var fv *graph.FailureView
		if trial%2 == 0 {
			var down []graph.EdgeID
			for k := 1 + rng.Intn(3); k > 0; k-- {
				down = append(down, graph.EdgeID(rng.Intn(g.Size())))
			}
			fv = graph.FailEdges(g, down...)
		} else {
			var down []graph.NodeID
			for k := 1 + rng.Intn(2); k > 0; k-- {
				down = append(down, graph.NodeID(rng.Intn(n)))
			}
			fv = graph.FailNodes(g, down...)
		}
		dead := ex.DeadUnderInto(fv, nil)
		for i, p := range all {
			if dead[i] == Survives(p, fv) {
				return fmt.Errorf("%s: DeadUnderInto(edges %v, nodes %v)[%d] = %v for %v", family, fv.RemovedEdges(), fv.RemovedNodes(), i, dead[i], p)
			}
		}
	}
	return nil
}
