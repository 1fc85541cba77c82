package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/core"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// TestTransitionRootsTreesAtSourcesOnly taps every published epoch of a
// seeded churn and demands that every tree in the epoch oracle — all of
// them rooted by the transition, none carried from the epoch before — sit
// at an endpoint of a repaired link (repair pricing) or of a down link (a
// patch point): the roots asked for by name. An affected source's row is
// derived in a worker's scratch and memoized nowhere (spath.Oracle.Row),
// and a restoration is read off that row and the arcs into its
// destination, so no tree is rooted at a destination to prune a search for
// it either. It fails as vacuous unless some moved row's source is no such
// endpoint.
func TestTransitionRootsTreesAtSourcesOnly(t *testing.T) {
	g := topology.PaperAS(1, 0.02)
	for _, scheme := range []Scheme{SchemeSource, SchemeHybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			var prev, last *Snapshot // the previous transition's final epoch; the latest epoch
			rooted, solved := 0, 0   // trees in epoch oracles; moved rows at no endpoint
			check := func(snap *Snapshot) {
				if last != nil && snap.Oracle() != last.Oracle() {
					prev = last // a new transition begins
				}
				last = snap
				if prev == nil {
					return
				}
				allowed := make(map[graph.NodeID]bool)
				for _, ed := range snap.Failed() {
					allowed[g.Edge(ed).U], allowed[g.Edge(ed).V] = true, true
				}
				for _, ed := range prev.Failed() {
					if !slices.Contains(snap.Failed(), ed) {
						allowed[g.Edge(ed).U], allowed[g.Edge(ed).V] = true, true
					}
				}
				for s := range g.Order() {
					if rowAt(snap.over, s) != rowAt(prev.over, s) && !allowed[graph.NodeID(s)] {
						solved++
					}
				}
				for _, r := range snap.Oracle().Roots() {
					rooted++
					if !allowed[r] {
						t.Errorf("epoch %d, failed %v after %v: a tree rooted at %d, which is no endpoint of a down or repaired link",
							snap.Epoch(), snap.Failed(), prev.Failed(), r)
					}
				}
			}
			e, _ := newEngine(t, g, Config{Scheme: scheme, OnEpoch: check})
			for _, ev := range failure.ChurnSchedule(g, 60, 3, rand.New(rand.NewSource(5))) {
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
			}
			if rooted == 0 || solved == 0 {
				t.Fatalf("vacuous: %d trees rooted, %d rows moved at sources that are no link endpoint", rooted, solved)
			}
		})
	}
}

// TestResolvedCostIsTheDecompositionCost: a route's cost, summed from the
// costs the base set stored per path, is core.Decomposition.Cost over the
// graph bit for bit — over every route of every epoch of a seeded churn on a
// weighted topology, and over every restoration of random failed-sets on a
// float-weighted one, where the order of a sum shows (the engine would
// refuse that graph; ResolveRoute is the cold tier's too).
func TestResolvedCostIsTheDecompositionCost(t *testing.T) {
	asDec := func(rt *Route) core.Decomposition {
		var dec core.Decomposition
		for _, l := range rt.LSPs {
			dec.Components = append(dec.Components, core.Component{Kind: core.KindBasePath, Path: l.Path})
		}
		return dec
	}
	t.Run("churn", func(t *testing.T) {
		g := topology.ISP(topology.ISPConfig{
			Core: 5, Agg: 10, Access: 25,
			CoreOffsets: []int{1, 2}, DualAccess: 12,
			WCore: 1, WAgg: 3, WAccess: 10, WJitter: 2,
		}, 3)
		routes := 0
		check := func(snap *Snapshot) {
			for _, row := range snap.over {
				_, rts := row.entries()
				for _, rt := range rts {
					if rt == nil {
						continue
					}
					routes++
					if want := asDec(rt).Cost(g); math.Float64bits(rt.Cost) != math.Float64bits(want) {
						t.Errorf("epoch %d: route of %d components costs %v, its decomposition %v", snap.Epoch(), len(rt.LSPs), rt.Cost, want)
						return
					}
				}
			}
		}
		e, _ := newEngine(t, g, Config{OnEpoch: check})
		for _, ev := range failure.ChurnSchedule(g, 60, 3, rand.New(rand.NewSource(8))) {
			e.ApplyEvents([]failure.Event{ev})
			e.Flush()
		}
		if routes == 0 {
			t.Fatal("vacuous: the churn published no overlay route")
		}
	})
	t.Run("float-weights", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		g := topology.Waxman(16, 0.8, 0.5, 2)
		fg := graph.New(g.Order())
		for _, e := range g.Edges() {
			fg.AddEdge(e.U, e.V, 0.1*float64(1+rng.Intn(40)))
		}
		sys, err := rbpc.NewSystem(fg, rbpc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := sys.Export()
		var all []graph.NodeID
		for d := range fg.Order() {
			all = append(all, graph.NodeID(d))
		}
		multi := 0
		for trial := 0; trial < 20; trial++ {
			fv := graph.FailEdges(fg, graph.EdgeID(rng.Intn(fg.Size())), graph.EdgeID(rng.Intn(fg.Size())))
			for _, s := range all {
				decs, oks := core.DecomposeSparseFrom(p.Base, fv, s, all)
				for i, dec := range decs {
					if !oks[i] || dec.Len() == 0 {
						continue
					}
					rt := ResolveRoute(p.Base, p.BaseLSPs, dec)
					if rt == nil {
						t.Fatalf("%d->%d: %v does not resolve", s, all[i], dec)
					}
					if want := dec.Cost(fg); math.Float64bits(rt.Cost) != math.Float64bits(want) {
						t.Fatalf("%d->%d: route costs %v, its decomposition %v", s, all[i], rt.Cost, want)
					}
					if dec.Len() > 1 {
						multi++
					}
				}
			}
		}
		if multi == 0 {
			t.Fatal("vacuous: no restoration of more than one component")
		}
	})
}
