package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// trueDistances runs the CSR SSSP on fv from s and returns the full
// distance row, the input Pull.From expects.
func trueDistances(fv *graph.FailureView, s graph.NodeID) []float64 {
	sp := spath.NewSolver(fv.Order())
	sp.Solve(fv, s)
	bound := make([]float64, fv.Order())
	for v := range bound {
		bound[v] = sp.Dist(graph.NodeID(v))
	}
	return bound
}

func sameDecomposition(a, b Decomposition) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Components {
		if a.Components[i].Kind != b.Components[i].Kind ||
			a.Components[i].Base != b.Components[i].Base ||
			!a.Components[i].Path.Equal(b.Components[i].Path) {
			return false
		}
	}
	return true
}

// baseNamesPath checks the identity every scan over a materialized base set
// hands on: a base-path component's Base names the stored path Equal to its
// Path, and only a bare edge carries none.
func baseNamesPath(ex *paths.Explicit, d Decomposition) error {
	for i, c := range d.Components {
		switch {
		case c.Kind == KindEdge && c.Base != 0:
			return fmt.Errorf("component %d: bare edge %v carries base index %d", i, c.Path, c.Base-1)
		case c.Kind == KindBasePath && (c.Base < 1 || int(c.Base) > ex.Len()):
			return fmt.Errorf("component %d: base path %v carries index %d of %d", i, c.Path, c.Base-1, ex.Len())
		case c.Kind == KindBasePath && !ex.All()[c.Base-1].Equal(c.Path):
			return fmt.Errorf("component %d: index %d names %v, the component is %v", i, c.Base-1, ex.All()[c.Base-1], c.Path)
		}
	}
	return nil
}

// edgeComplete returns b materialized for every source plus the 1-hop path
// over every link both ways — what EdgeLSPs provisioning installs, and what
// the pull requires.
func edgeComplete(g *graph.Graph, b paths.TreeBase) *paths.Explicit {
	var sources []graph.NodeID
	for i := 0; i < g.Order(); i++ {
		sources = append(sources, graph.NodeID(i))
	}
	ex := paths.FromSources(b, sources)
	for _, e := range g.Edges() {
		ex.Add(paths.EdgePath(g, e.ID, e.U))
		ex.Add(paths.EdgePath(g, e.ID, e.V))
	}
	return ex
}

// pullFrom runs one pull the way the engine does: liveness counts from a
// LiveIndex moved to fv's failed links, the distance row from an SSSP of fv.
func pullFrom(ex *paths.Explicit, fv *graph.FailureView, s graph.NodeID, dsts []graph.NodeID) ([]Decomposition, []bool) {
	li := paths.NewLiveIndex(ex)
	li.Update(fv.RemovedEdges(), nil, nil)
	decs, oks := make([]Decomposition, len(dsts)), make([]bool, len(dsts))
	NewPull(ex).From(s, trueDistances(fv, s), li.Dead(), dsts, decs, oks)
	return decs, oks
}

// TestPullBitIdenticalToFrom: on random integer-weighted graphs under
// random link failures, over three base families each made edge-complete,
// the pull returns exactly the decompositions a fresh Dijkstra does — same
// reachability and the same component sequences, not just costs — for
// every source, with the targets a random subset in random order, so the
// order labels are memoized in does not matter. One Pull serves every
// source of a trial, as a build worker's does. This is the property the
// incremental epoch builder's bit-identity claim rests on.
func TestPullBitIdenticalToFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairs, deep, deeper := 0, 0, 0
	for trial := 0; trial < 90; trial++ {
		n := 10 + rng.Intn(21)
		g := randomConnected(rng, n, n/3+rng.Intn(n), 4)
		var ex *paths.Explicit
		switch trial % 3 {
		case 0:
			ex = edgeComplete(g, paths.NewAllShortest(g))
		case 1:
			ex = edgeComplete(g, paths.NewUniqueShortest(g))
		default:
			ex = paths.Corollary4Extend(edgeComplete(g, paths.NewUniqueShortest(g)), g)
		}
		if !ex.EdgeComplete() {
			t.Fatalf("trial %d: base set not edge-complete", trial)
		}

		var failed []graph.EdgeID
		for nfail := 1 + rng.Intn(5); len(failed) < nfail; {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...) // a link drawn twice is down once
		li := paths.NewLiveIndex(ex)
		li.Update(fv.RemovedEdges(), nil, nil)
		pull := NewPull(ex)

		for s := 0; s < n; s++ {
			src := graph.NodeID(s)
			var dsts []graph.NodeID
			for _, d := range rng.Perm(n)[:1+rng.Intn(n)] {
				dsts = append(dsts, graph.NodeID(d))
			}
			wantDecs, wantOks := NewSparseSolver(ex, fv).From(src, dsts)
			gotDecs, gotOks := make([]Decomposition, len(dsts)), make([]bool, len(dsts))
			pull.From(src, trueDistances(fv, src), li.Dead(), dsts, gotDecs, gotOks)
			for i, d := range dsts {
				if gotOks[i] != wantOks[i] {
					t.Fatalf("trial %d s=%d d=%d: reachable %v (pull) vs %v (Dijkstra)",
						trial, s, d, gotOks[i], wantOks[i])
				}
				if !sameDecomposition(gotDecs[i], wantDecs[i]) {
					t.Fatalf("trial %d s=%d d=%d failed %v: decomposition diverged:\n pull:     %v\n Dijkstra: %v",
						trial, s, d, fv.RemovedEdges(), gotDecs[i], wantDecs[i])
				}
				// Both name the same stored path (sameDecomposition compared
				// the indices).
				if err := baseNamesPath(ex, gotDecs[i]); err != nil {
					t.Fatalf("trial %d s=%d d=%d: %v", trial, s, d, err)
				}
				pairs++
				if gotDecs[i].Len() >= 3 { // no one-component predecessor: the recursion ran
					deep++
				}
				if gotDecs[i].Len() >= 4 { // and recursed again below it
					deeper++
				}
			}
		}
	}
	t.Logf("%d pairs, %d at >= 3 components, %d at >= 4", pairs, deep, deeper)
	if deep == 0 || deeper == 0 {
		t.Fatal("vacuous: the recursion never ran, or never nested")
	}
}

// TestPullOnFloatWeights pins what holds where the path sums are not exact
// (the serving stack refuses such graphs, rbpc.Provision.Servable; the pull
// itself must still be sound): the pull's cost is the Dijkstra's within the
// slack, its decomposition validates, and it never has more components —
// the Dijkstra, comparing sums that differ by an ulp as different costs,
// can miss the shorter chain.
func TestPullOnFloatWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs, differ, shorter := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(15)
		g := graph.New(n)
		perm := rng.Perm(n)
		w := func() float64 { return 0.1 * float64(1+rng.Intn(40)) }
		for i := 1; i < n; i++ {
			g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), w())
		}
		for i := 0; i < n; i++ {
			if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
				g.AddEdge(u, v, w())
			}
		}
		ex := edgeComplete(g, paths.NewAllShortest(g))
		var failed []graph.EdgeID
		for nfail := 1 + rng.Intn(4); len(failed) < nfail; {
			failed = append(failed, graph.EdgeID(rng.Intn(g.Size())))
		}
		fv := graph.FailEdges(g, failed...)
		var dsts []graph.NodeID
		for d := 0; d < n; d++ {
			dsts = append(dsts, graph.NodeID(d))
		}
		for s := 0; s < n; s++ {
			src := graph.NodeID(s)
			wantDecs, wantOks := NewSparseSolver(ex, fv).From(src, dsts)
			gotDecs, gotOks := pullFrom(ex, fv, src, dsts)
			for i, d := range dsts {
				if gotOks[i] != wantOks[i] {
					t.Fatalf("trial %d s=%d d=%d: reachable %v (pull) vs %v (Dijkstra)", trial, s, d, gotOks[i], wantOks[i])
				}
				if !gotOks[i] || d == src {
					continue
				}
				got, want := gotDecs[i].Cost(g), wantDecs[i].Cost(g)
				if math.Abs(got-want) > boundSlack(want) {
					t.Fatalf("trial %d s=%d d=%d: cost %v (pull) vs %v (Dijkstra)", trial, s, d, got, want)
				}
				if err := ValidateDecomposition(ex, gotDecs[i].Concat(), gotDecs[i]); err != nil {
					t.Fatalf("trial %d s=%d d=%d: %v", trial, s, d, err)
				}
				if gotDecs[i].Len() > wantDecs[i].Len() {
					t.Fatalf("trial %d s=%d d=%d: %d components (pull) vs %d (Dijkstra)", trial, s, d, gotDecs[i].Len(), wantDecs[i].Len())
				}
				pairs++
				if !sameDecomposition(gotDecs[i], wantDecs[i]) {
					differ++
				}
				if gotDecs[i].Len() < wantDecs[i].Len() {
					shorter++
				}
			}
		}
	}
	t.Logf("%d pairs: %d decomposed differently, %d with fewer components than the Dijkstra's", pairs, differ, shorter)
}

// TestPullSkipsUnreachable: destinations the distance row proves
// unreachable come back not-ok, the source itself ok and empty.
func TestPullSkipsUnreachable(t *testing.T) {
	// Path 0-1-2: failing edge (1,2) strands node 2.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	cut := g.AddEdge(1, 2, 1)
	ex := paths.FromSources(paths.NewAllShortest(g), []graph.NodeID{0, 1, 2})
	decs, oks := pullFrom(ex, graph.FailEdges(g, cut), 0, []graph.NodeID{0, 1, 2})
	if !oks[0] || !oks[1] || oks[2] {
		t.Fatalf("oks = %v, want [true true false]", oks)
	}
	if decs[0].Len() != 0 || decs[1].Len() != 1 || decs[2].Len() != 0 {
		t.Fatalf("components %d/%d/%d, want 0/1/0", decs[0].Len(), decs[1].Len(), decs[2].Len())
	}
}

// TestPullReusesItsComponents: a Pull carves every solve's decompositions
// from one buffer it keeps, so once the buffer has grown to the largest
// solve's size, From allocates nothing — and a solve after a larger one
// still returns exactly the decompositions a fresh Pull does.
func TestPullReusesItsComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomConnected(rng, 30, 25, 4)
	ex := edgeComplete(g, paths.NewUniqueShortest(g))
	fv := graph.FailEdges(g, 2, 9, 17)
	li := paths.NewLiveIndex(ex)
	li.Update(fv.RemovedEdges(), nil, nil)
	all := make([]graph.NodeID, g.Order())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	pull := NewPull(ex)
	decs, oks := make([]Decomposition, len(all)), make([]bool, len(all))
	comps := 0
	for s := range all {
		dist := trueDistances(fv, graph.NodeID(s))
		pull.From(graph.NodeID(s), dist, li.Dead(), all, decs, oks) // grows the buffer
		few := all[:1+s%5]
		if a := testing.AllocsPerRun(10, func() { pull.From(graph.NodeID(s), dist, li.Dead(), few, decs, oks) }); a != 0 {
			t.Fatalf("source %d: a pull allocates %v times after the buffer grew, want 0", s, a)
		}
		want, wantOks := pullFrom(ex, fv, graph.NodeID(s), few)
		for i := range few {
			if oks[i] != wantOks[i] || !sameDecomposition(decs[i], want[i]) {
				t.Fatalf("source %d to %d: %v (ok %v) from a reused buffer, %v (ok %v) from a fresh Pull", s, few[i], decs[i], oks[i], want[i], wantOks[i])
			}
			comps += decs[i].Len()
		}
	}
	if comps == 0 {
		t.Fatal("vacuous: no decomposition had a component")
	}
}
