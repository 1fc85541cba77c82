package paths

import (
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
)

// TestLiveIndexWalkMatchesFromScratch: after every step of a seeded
// fail/repair walk, the incrementally updated counts mark dead exactly the
// paths the from-scratch mask of the cumulative failed set does
// (Explicit.DeadUnderInto) — so the counts neither drift under repairs nor
// depend on how the set was reached — and the step's reported moves are
// exactly the paths whose from-scratch liveness flipped, each once.
func TestLiveIndexWalkMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(rng, 30, 45, 4)
	var sources []graph.NodeID
	for i := 0; i < g.Order(); i++ {
		sources = append(sources, graph.NodeID(i))
	}
	ex := Corollary4Extend(FromSources(NewAllShortest(g), sources), g)
	li := NewLiveIndex(ex)

	down := map[graph.EdgeID]bool{}
	was := make([]bool, ex.Len())
	var moves LiveMoves
	sawDead, sawRepair, sawStay := false, false, false
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
		li.Update(fail, repair, &moves)
		sawRepair = sawRepair || len(repair) > 0

		var all []graph.EdgeID
		for e := range down {
			all = append(all, e)
		}
		slices.Sort(all)
		want := ex.DeadUnderInto(graph.FailEdges(g, all...), nil)
		for i, c := range li.Dead() {
			if c < 0 || (c != 0) != want[i] {
				t.Fatalf("step %d failed %v: path %d has %d links down, from scratch dead = %v", step, all, i, c, want[i])
			}
			sawDead = sawDead || c > 1
		}
		var broken, healed []int
		for i := range want {
			switch {
			case want[i] && !was[i]:
				broken = append(broken, i)
			case !want[i] && was[i]:
				healed = append(healed, i)
			case want[i] && len(fail) > 0 && len(repair) > 0:
				sawStay = true
			}
		}
		if got := sortedCopy(moves.Broken); !slices.Equal(got, broken) {
			t.Fatalf("step %d: reported broken %v, liveness flipped dead on %v", step, got, broken)
		}
		if got := sortedCopy(moves.Healed); !slices.Equal(got, healed) {
			t.Fatalf("step %d: reported healed %v, liveness flipped alive on %v", step, got, healed)
		}
		was = want
	}
	if !sawRepair || !sawDead || !sawStay {
		t.Fatalf("vacuous: repairs seen %v, a path with two links down seen %v, a dead path through a mixed burst seen %v",
			sawRepair, sawDead, sawStay)
	}
}

func sortedCopy(s []int) []int {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
