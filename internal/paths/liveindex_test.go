package paths

import (
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
)

// TestLiveIndexWalkMatchesFromScratch: after every step of a seeded
// fail/repair walk, the incrementally updated index presents, for every
// source, exactly the columns a fresh index gives after one Update with the
// cumulative failed set — so the per-source touched stamp neither drops a
// source (a stale column) nor depends on how the set was reached.
func TestLiveIndexWalkMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(rng, 30, 45, 4)
	var sources []graph.NodeID
	for i := 0; i < g.Order(); i++ {
		sources = append(sources, graph.NodeID(i))
	}
	ex := Corollary4Extend(FromSources(NewAllShortest(g), sources), g)
	ci := NewCostIndex(ex)
	li := NewLiveIndex(ex, ci)

	down := map[graph.EdgeID]bool{}
	for step := 0; step < 200; step++ {
		// One burst: a few failures of up links and repairs of down ones.
		var fail, repair []graph.EdgeID
		for i := 1 + rng.Intn(3); i > 0; i-- {
			e := graph.EdgeID(rng.Intn(g.Size()))
			switch {
			case slices.Contains(fail, e) || slices.Contains(repair, e):
			case down[e]:
				repair = append(repair, e)
			case len(down) < 5:
				fail = append(fail, e)
			}
		}
		for _, e := range fail {
			down[e] = true
		}
		for _, e := range repair {
			delete(down, e)
		}
		li.Update(fail, repair)

		var all []graph.EdgeID
		for e := range down {
			all = append(all, e)
		}
		slices.Sort(all)
		fresh := NewLiveIndex(ex, ci)
		fresh.Update(all, nil)
		if li.DeadPaths() != fresh.DeadPaths() {
			t.Fatalf("step %d: %d dead paths, from scratch %d", step, li.DeadPaths(), fresh.DeadPaths())
		}
		for _, u := range sources {
			c1, d1, k1 := li.LiveFromSource(u)
			c2, d2, k2 := fresh.LiveFromSource(u)
			if !slices.Equal(c1, c2) || !slices.Equal(d1, d2) || !slices.Equal(k1, k2) {
				t.Fatalf("step %d failed %v: source %d live columns differ from a from-scratch index", step, all, u)
			}
		}
	}
}
