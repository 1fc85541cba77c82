package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

func square() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	return g
}

func randomConnected(rng *rand.Rand, n, extra, maxW int) *graph.Graph {
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

func TestGreedySquareSingleFailure(t *testing.T) {
	g := square()
	base := paths.NewAllShortest(g)
	fv := graph.FailEdges(g, 0) // fail 0-1
	backup, ok := spath.Compute(fv, 0).PathTo(1)
	if !ok || backup.Hops() != 3 {
		t.Fatalf("backup = %v, ok=%v", backup, ok)
	}
	dec := DecomposeGreedy(base, backup)
	if err := ValidateDecomposition(base, backup, dec); err != nil {
		t.Fatalf("invalid decomposition: %v", err)
	}
	if dec.Len() != 2 || dec.NumPaths() != 2 || dec.NumEdges() != 0 {
		t.Errorf("decomposition %v: len=%d paths=%d edges=%d, want 2 paths",
			dec, dec.Len(), dec.NumPaths(), dec.NumEdges())
	}
	// Theorem 1 with k=1: at most 2 components.
	rep, err := CheckTheorem1(g, fv, 0, 1)
	if err != nil || !rep.WithinBound || rep.PathComps != 2 {
		t.Errorf("CheckTheorem1 = %+v, %v", rep, err)
	}
}

func TestGreedyTrivialTarget(t *testing.T) {
	g := square()
	base := paths.NewAllShortest(g)
	dec := DecomposeGreedy(base, graph.Trivial(2))
	if dec.Len() != 0 {
		t.Errorf("trivial target decomposed into %d components", dec.Len())
	}
	if err := ValidateDecomposition(base, graph.Trivial(2), dec); err != nil {
		t.Errorf("ValidateDecomposition: %v", err)
	}
}

func TestGreedyEmitsEdgeComponent(t *testing.T) {
	// Triangle with a heavy edge: 0-2 costs 5 while 0-1-2 costs 2. After
	// failing both light edges... that disconnects. Instead: path 3-0,
	// 0-2 heavy, 2-4: restoring 3->4 after killing the light route forces
	// the heavy edge, which is not a shortest path, so it must appear as a
	// bare-edge component.
	g := graph.New(5)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5) // heavy
	g.AddEdge(3, 0, 1)
	g.AddEdge(2, 4, 1)
	base := paths.NewAllShortest(g)
	fv := graph.FailEdges(g, e01, e12)
	backup, ok := spath.Compute(fv, 3).PathTo(4)
	if !ok {
		t.Fatal("no backup path")
	}
	dec := DecomposeGreedy(base, backup)
	if err := ValidateDecomposition(base, backup, dec); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if dec.NumEdges() != 1 {
		t.Errorf("decomposition %v has %d edge components, want 1", dec, dec.NumEdges())
	}
	// Theorem 2, k=2: at most 3 base paths + 2 edges.
	rep, err := CheckTheorem2(g, fv, 3, 4)
	if err != nil || !rep.WithinBound {
		t.Errorf("CheckTheorem2 = %+v, %v", rep, err)
	}
}

func TestFourCycleExtraEdgeRemark(t *testing.T) {
	// The paper's remark: on C4 with one shortest path chosen per pair,
	// some single failure requires 3 components, and with no bare edges
	// allowed the minimum is 3 > k+1 = 2 base paths.
	g := square()
	base := paths.NewUniqueShortest(g)
	foundTight := false
	for _, e := range g.Edges() {
		fv := graph.FailEdges(g, e.ID)
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d {
					continue
				}
				orig, ok := base.Between(graph.NodeID(s), graph.NodeID(d))
				if !ok || paths.Survives(orig, fv) {
					continue
				}
				pfv := spath.Padded(fv, spath.PaddingFor(g))
				backup, ok := spath.Compute(pfv, graph.NodeID(s)).PathTo(graph.NodeID(d))
				if !ok {
					continue
				}
				noEdges := MinPathComponents(base, backup, 0)
				withEdge := MinPathComponents(base, backup, 1)
				if withEdge < 0 || (noEdges >= 0 && noEdges > 3) {
					t.Fatalf("C4 restoration impossible: noEdges=%d withEdge=%d", noEdges, withEdge)
				}
				if noEdges < 0 || noEdges == 3 {
					foundTight = true
				}
			}
		}
	}
	if !foundTight {
		t.Error("no single failure on C4 required 3 pure-path components; remark not demonstrated")
	}
}

func TestMinPathComponentsUncoverable(t *testing.T) {
	// An explicit empty base set cannot cover anything without edges.
	g := square()
	empty := paths.NewExplicit(g)
	target := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}
	if got := MinPathComponents(empty, target, 0); got != -1 {
		t.Errorf("MinPathComponents with empty base = %d, want -1", got)
	}
	if got := MinPathComponents(empty, target, 1); got != 0 {
		t.Errorf("MinPathComponents with one edge allowed = %d, want 0", got)
	}
}

func TestSparseMatchesShortestCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(rng, 5+rng.Intn(15), rng.Intn(20), 4)
		base := paths.NewUniqueShortest(g)
		e := graph.EdgeID(rng.Intn(g.Size()))
		fv := graph.FailEdges(g, e)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			continue
		}
		want := spath.Compute(fv, s).Dist(d)
		dec, ok := DecomposeSparse(base, fv, s, d)
		if want == spath.Unreachable {
			if ok {
				t.Fatalf("trial %d: sparse found a path for disconnected pair", trial)
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: sparse failed on connected pair", trial)
		}
		if got := dec.Cost(g); got != want {
			t.Fatalf("trial %d: sparse cost %v != shortest %v (dec %v)", trial, got, want, dec)
		}
		if len(dec.Components) > 0 {
			full := dec.Concat()
			if err := full.Validate(fv); err != nil {
				t.Fatalf("trial %d: sparse concatenation invalid in view: %v", trial, err)
			}
		}
		for _, c := range dec.Components {
			if c.Base != 0 {
				t.Fatalf("trial %d: an implicit base set has no positions, yet %v carries index %d", trial, c.Path, c.Base-1)
			}
		}
	}
}

func TestSparseUnusableEndpoints(t *testing.T) {
	g := square()
	base := paths.NewUniqueShortest(g)
	fv := graph.FailNodes(g, 0)
	if _, ok := DecomposeSparse(base, fv, 0, 2); ok {
		t.Error("sparse succeeded from removed node")
	}
	if dec, ok := DecomposeSparse(base, fv, 2, 2); !ok || dec.Len() != 0 {
		t.Error("sparse s==d should be empty and ok")
	}
}

func TestRestorerGreedy(t *testing.T) {
	g := square()
	r := NewRestorer(paths.NewAllShortest(g), StrategyGreedy)
	fv := graph.FailEdges(g, 0)
	plan, err := r.Restore(fv, 0, 1)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if plan.PCLength() != 2 || plan.Backup.Hops() != 3 {
		t.Errorf("plan = %+v", plan)
	}
	if r.Base() == nil {
		t.Error("Base() nil")
	}
}

func TestRestorerSparse(t *testing.T) {
	g := square()
	r := NewRestorer(paths.NewUniqueShortest(g), StrategySparse)
	fv := graph.FailEdges(g, 0)
	plan, err := r.Restore(fv, 0, 1)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if plan.Backup.CostIn(g) != 3 {
		t.Errorf("backup cost = %v, want 3", plan.Backup.CostIn(g))
	}
}

func TestRestorerDisconnected(t *testing.T) {
	g := graph.New(2)
	e := g.AddEdge(0, 1, 1)
	fv := graph.FailEdges(g, e)
	for _, strat := range []Strategy{StrategyGreedy, StrategySparse} {
		r := NewRestorer(paths.NewAllShortest(g), strat)
		_, err := r.Restore(fv, 0, 1)
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("%v: err = %v, want ErrDisconnected", strat, err)
		}
	}
}

func TestRestorerUnknownStrategy(t *testing.T) {
	g := square()
	r := NewRestorer(paths.NewAllShortest(g), Strategy(99))
	if _, err := r.Restore(graph.FailEdges(g), 0, 1); err == nil {
		t.Error("unknown strategy did not error")
	}
	if Strategy(99).String() == "" || StrategyGreedy.String() != "greedy" || StrategySparse.String() != "sparse" {
		t.Error("Strategy.String wrong")
	}
}

func TestRestoreBroken(t *testing.T) {
	g := square()
	r := NewRestorer(paths.NewAllShortest(g), StrategyGreedy)
	fv := graph.FailEdges(g, 0) // breaks pairs whose canonical path used edge 0
	all := []graph.NodeID{0, 1, 2, 3}
	plans, disc := r.RestoreBroken(fv, all)
	if disc != 0 {
		t.Errorf("disconnected = %d, want 0", disc)
	}
	if len(plans) == 0 {
		t.Fatal("no plans for broken pairs")
	}
	for _, p := range plans {
		if err := ValidateDecomposition(r.Base(), p.Backup, p.Decomp); err != nil {
			t.Errorf("plan %d->%d invalid: %v", p.Src, p.Dst, err)
		}
		if p.Backup.HasEdge(0) {
			t.Errorf("plan %d->%d uses failed edge", p.Src, p.Dst)
		}
	}
}

func TestRestoreBrokenNodeFailure(t *testing.T) {
	g := square()
	r := NewRestorer(paths.NewAllShortest(g), StrategyGreedy)
	fv := graph.FailNodes(g, 1)
	plans, disc := r.RestoreBroken(fv, []graph.NodeID{0, 1, 2, 3})
	if disc != 0 {
		t.Errorf("disconnected = %d", disc)
	}
	for _, p := range plans {
		if p.Src == 1 || p.Dst == 1 {
			t.Errorf("plan involves failed router: %d->%d", p.Src, p.Dst)
		}
		if p.Backup.HasNode(1) {
			t.Errorf("backup path crosses failed router: %v", p.Backup)
		}
	}
}

func TestDecompositionAccessors(t *testing.T) {
	g := square()
	p01 := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}
	p12 := graph.Path{Nodes: []graph.NodeID{1, 2}, Edges: []graph.EdgeID{1}}
	d := Decomposition{Components: []Component{
		{Kind: KindBasePath, Path: p01},
		{Kind: KindEdge, Path: p12},
	}}
	if d.NumPaths() != 1 || d.NumEdges() != 1 || d.Len() != 2 {
		t.Errorf("accessors wrong: %d/%d/%d", d.NumPaths(), d.NumEdges(), d.Len())
	}
	if got := d.Concat(); got.Src() != 0 || got.Dst() != 2 || got.Hops() != 2 {
		t.Errorf("Concat = %v", got)
	}
	if d.Cost(g) != 2 {
		t.Errorf("Cost = %v", d.Cost(g))
	}
	if d.String() == "" || KindBasePath.String() != "base-path" || KindEdge.String() != "edge" || Kind(9).String() == "" {
		t.Error("String methods")
	}
}

func TestValidateDecompositionErrors(t *testing.T) {
	g := square()
	base := paths.NewAllShortest(g)
	target := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	longWay := graph.Path{Nodes: []graph.NodeID{0, 3, 2, 1}, Edges: []graph.EdgeID{3, 2, 1}}

	if err := ValidateDecomposition(base, target, Decomposition{}); err == nil {
		t.Error("empty decomposition accepted for nontrivial target")
	}
	if err := ValidateDecomposition(base, graph.Trivial(0), Decomposition{Components: []Component{{Kind: KindEdge, Path: target.SubPath(0, 1)}}}); err == nil {
		t.Error("nonempty decomposition accepted for trivial target")
	}
	bad := Decomposition{Components: []Component{{Kind: KindBasePath, Path: longWay}}}
	if err := ValidateDecomposition(base, longWay, bad); err == nil {
		t.Error("non-shortest component accepted as base path")
	}
	badEdge := Decomposition{Components: []Component{{Kind: KindEdge, Path: target}}}
	if err := ValidateDecomposition(base, target, badEdge); err == nil {
		t.Error("multi-hop edge component accepted")
	}
	badKind := Decomposition{Components: []Component{{Kind: Kind(0), Path: target}}}
	if err := ValidateDecomposition(base, target, badKind); err == nil {
		t.Error("invalid kind accepted")
	}
	wrongConcat := Decomposition{Components: []Component{{Kind: KindBasePath, Path: target.SubPath(0, 1)}}}
	if err := ValidateDecomposition(base, target, wrongConcat); err == nil {
		t.Error("partial cover accepted")
	}
}

// TestQuickTheorem1RandomGraphs: Theorem 1 holds on random unweighted
// graphs with random failure sets.
func TestQuickTheorem1RandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 4+rng.Intn(14), rng.Intn(25), 1)
		k := 1 + rng.Intn(3)
		var failed []graph.EdgeID
		for i := 0; i < k; i++ {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			return true
		}
		rep, err := CheckTheorem1(g, fv, s, d)
		if err != nil {
			return false
		}
		return !rep.Reachable || rep.WithinBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTheorem2RandomGraphs: Theorem 2 holds on random weighted graphs.
func TestQuickTheorem2RandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 4+rng.Intn(12), rng.Intn(20), 5)
		k := 1 + rng.Intn(3)
		var failed []graph.EdgeID
		for i := 0; i < k; i++ {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			return true
		}
		rep, err := CheckTheorem2(g, fv, s, d)
		if err != nil {
			return false
		}
		return !rep.Reachable || rep.WithinBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTheorem3RandomGraphs: the padded-unique base set achieves the
// k+1 paths + k edges bound.
func TestQuickTheorem3RandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 4+rng.Intn(10), rng.Intn(15), 3)
		base := paths.NewUniqueShortest(g)
		k := 1 + rng.Intn(2)
		var failed []graph.EdgeID
		for i := 0; i < k; i++ {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			return true
		}
		rep, err := CheckTheorem3(g, base, fv, s, d)
		if err != nil {
			return false
		}
		return !rep.Reachable || rep.WithinBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGreedyWithinTheoremBounds: the production greedy decomposer
// stays within 2k+1 total components on subpath-closed bases.
func TestQuickGreedyWithinTheoremBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 4+rng.Intn(12), rng.Intn(20), 4)
		base := paths.NewAllShortest(g)
		k := 1 + rng.Intn(3)
		var failed []graph.EdgeID
		for i := 0; i < k; i++ {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			return true
		}
		backup, ok := spath.Compute(fv, s).PathTo(d)
		if !ok {
			return true
		}
		dec := DecomposeGreedy(base, backup)
		if ValidateDecomposition(base, backup, dec) != nil {
			return false
		}
		// Greedy minimizes total components; the theorem guarantees a
		// decomposition with <= (k+1) + k components exists.
		return dec.Len() <= 2*k+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGreedyOptimal: on subpath-closed bases the greedy component
// count matches the DP optimum (with unlimited edge components).
func TestQuickGreedyOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 4+rng.Intn(10), rng.Intn(15), 4)
		base := paths.NewAllShortest(g)
		e := graph.EdgeID(rng.Intn(g.Size()))
		fv := graph.FailEdges(g, e)
		s := graph.NodeID(rng.Intn(g.Order()))
		d := graph.NodeID(rng.Intn(g.Order()))
		if s == d {
			return true
		}
		backup, ok := spath.Compute(fv, s).PathTo(d)
		if !ok || backup.Hops() == 0 {
			return true
		}
		dec := DecomposeGreedy(base, backup)
		// DP minimizing paths with edge budget = hops (i.e. unconstrained)
		// gives a lower bound on total components when each edge counts 1:
		// compare against exhaustive minimum over edge budgets.
		best := -1
		for budget := 0; budget <= backup.Hops(); budget++ {
			if p := MinPathComponents(base, backup, budget); p >= 0 {
				total := p + budget // upper bound: budget may not all be used
				if best < 0 || total < best {
					best = total
				}
			}
		}
		return best < 0 || dec.Len() <= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
