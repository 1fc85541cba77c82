package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

// TestEpochTreesMatchCompute taps every published epoch of a seeded churn
// (failures and repairs, at most three links down) and demands that the
// epoch oracle's tree of every root — the ones the build derived and cached,
// and the rest, derived on the spot — has exactly the distance row of a
// from-scratch search of the epoch's view, and so does every row the solve
// fan-out pulled from (spath.Oracle.Row), most of them derived in a
// worker's scratch and memoized nowhere. An epoch's trees are checked once
// its transition is over: a hybrid transition's two epochs share one
// oracle, and rooting every tree after phase one would hand phase two's
// fan-out memoized rows. The capped arm squeezes the pristine oracle to
// four trees, so most derivations first bring an evicted pristine tree
// back.
func TestEpochTreesMatchCompute(t *testing.T) {
	small := topology.ISPConfig{
		Core: 5, Agg: 10, Access: 25,
		CoreOffsets: []int{1, 2}, DualAccess: 12,
		WCore: 1, WAgg: 3, WAccess: 10, WJitter: 2,
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"AS-unit", topology.PaperAS(1, 0.01)},
		{"ISP-weighted", topology.ISP(small, 3)},
	} {
		for _, scheme := range []Scheme{SchemeSource, SchemeHybrid} {
			for _, pristineCap := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/%s/cap=%d", tc.name, scheme, pristineCap), func(t *testing.T) {
					g := tc.g
					sameBits := func(got, want []float64) int {
						for v := range want {
							if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
								return v
							}
						}
						return -1
					}
					epochs, repaired := 0, 0
					cached := 0
					checkTrees := func(snap *Snapshot) {
						cached += snap.Oracle().CachedTrees()
						for s := 0; s < g.Order(); s++ {
							root := graph.NodeID(s)
							got := snap.Oracle().Tree(root).Dists()
							want := spath.Compute(snap.View(), root).Dists()
							if v := sameBits(got, want); v >= 0 {
								t.Errorf("epoch %d failed %v: root %d dist to %d = %v, Compute says %v",
									snap.Epoch(), snap.Failed(), root, v, got[v], want[v])
								return
							}
						}
					}
					var pending *Snapshot // the latest epoch, its trees not yet checked
					check := func(snap *Snapshot) {
						epochs++
						if pending != nil && pending.Oracle() != snap.Oracle() {
							checkTrees(pending)
						}
						pending = snap
					}
					e, _ := newEngine(t, g, Config{Scheme: scheme, OnEpoch: check})
					// The fan-out's workers call the tap concurrently.
					var mu sync.Mutex
					rows, scratch := 0, 0
					for w := range e.solvers {
						e.solvers[w].tap = func(src graph.NodeID, row []float64, o *spath.Oracle) {
							want := spath.Compute(o.View(), src).Dists()
							memoized := slices.Contains(o.Roots(), src)
							pristine := sameBits(row, spath.Compute(g, src).Dists()) < 0
							mu.Lock()
							defer mu.Unlock()
							rows++
							if !memoized && !pristine {
								scratch++ // repaired in the worker's arena
							}
							if v := sameBits(row, want); v >= 0 {
								t.Errorf("failed %v: the fan-out's row of %d has %v at %d, Compute says %v",
									o.View().(*graph.FailureView).RemovedEdges(), src, row[v], v, want[v])
							}
						}
					}
					if pristineCap > 0 {
						e.pristine.SetCap(pristineCap)
					}
					for _, ev := range failure.ChurnSchedule(g, 40, 3, rand.New(rand.NewSource(5))) {
						if ev.Repair {
							repaired++
						}
						e.ApplyEvents([]failure.Event{ev})
						e.Flush()
					}
					checkTrees(pending)
					if epochs < 40 || repaired == 0 || cached == 0 || scratch == 0 {
						t.Fatalf("vacuous: %d epochs, %d repairs, %d trees cached by the builds, %d fan-out rows (%d derived in scratch)",
							epochs, repaired, cached, rows, scratch)
					}
					if got := e.pristine.CachedTrees(); pristineCap > 0 && got > pristineCap {
						t.Fatalf("pristine oracle holds %d trees, cap %d", got, pristineCap)
					}
				})
			}
		}
	}
}
