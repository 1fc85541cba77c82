package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

// fecCarriesRoutes is the writer's one forwarding invariant, checked from
// the outside: at a published epoch the FEC entry of every materialized
// (src, dst) pushes exactly the stack of the route the snapshot serves, and
// is absent iff the pair is unroutable. A hybrid source the flood has not
// reached still serves its local answer over the canonical entry and is
// skipped.
func fecCarriesRoutes(t *testing.T, snap *Snapshot, tag string) {
	t.Helper()
	n := len(snap.canon)
	for s := 0; s < n; s++ {
		src := graph.NodeID(s)
		if !snap.Materialized(src) || !snap.HorizonPassed(src) {
			continue
		}
		for d := 0; d < n; d++ {
			dst := graph.NodeID(d)
			if dst == src {
				continue
			}
			rt := snap.Route(src, dst)
			ent, ok := snap.Net().Router(src).FECEntryFor(dst)
			if ok != (rt != nil) {
				t.Fatalf("%s (failed %v): pair %d->%d routable %v, FEC entry present %v", tag, snap.Failed(), s, d, rt != nil, ok)
			}
			if ok && !slices.Equal(ent.Stack, rt.Stack) {
				t.Fatalf("%s (failed %v): pair %d->%d FEC pushes %v, served route %v", tag, snap.Failed(), s, d, ent.Stack, rt.Stack)
			}
		}
	}
}

// TestFECWritesAreTheRowDiff pins what a transition costs the data plane:
// exactly the paper's FEC delta, on plan-cache hits and misses alike. Over
// three-link episodes down and back, drawn from a small pool so failed-sets
// recur, at a cache squeezed to one plan, at the benchmark's three and
// unbounded — misses, hits, evictions and the repair-only alias — the FEC
// writes of every transition number the pairs whose served route changed; a
// hit publishes the cached rows as they are, and a miss keeps the row
// pointer of every source none of whose pairs changed.
func TestFECWritesAreTheRowDiff(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	n := g.Order()
	// A chord dearer than any shortest path: no primary crosses it and no
	// restoration route wants it, so its failure and its repair change no
	// route — the transitions that alias the previous plan.
	quiet := g.AddEdge(0, graph.NodeID(n-1), 1e6)
	pool := []graph.EdgeID{quiet, 0, 1, 2, 3}
	sameRows := func(a, b []*planRow) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	for _, cacheCap := range []int{1, 3, 0} {
		e, _ := newEngine(t, g, Config{PlanCacheCap: cacheCap})
		if len(e.AffectedPairs(quiet)) != 0 {
			t.Fatal("the chord carries a primary")
		}

		var down []graph.EdgeID
		aliased, evicted := 0, false
		prev := e.Snapshot()
		step := func(ed graph.EdgeID, repair bool) {
			t.Helper()
			if i, _ := slices.BinarySearch(down, ed); repair {
				down = slices.Delete(down, i, i+1)
			} else {
				down = slices.Insert(down, i, ed)
			}
			// The writer is idle between a flush and the next event, so its
			// cache can be read.
			cached, hit := e.planCache.entries[failedKey(down)]
			evicted = evicted || cacheCap > 0 && !hit && e.planCache.size() == cacheCap+1
			e.ApplyEvents([]failure.Event{{Repair: repair, Edge: ed}})
			e.Flush()
			snap := e.Snapshot()
			tag := fmt.Sprintf("cap %d, %v -> %v", cacheCap, prev.Failed(), snap.Failed())
			if hit && !sameRows(snap.over, cached.p.rows) {
				t.Fatalf("%s: a cache hit did not publish the cached rows as they are", tag)
			}
			changed := 0
			for s := 0; s < n; s++ {
				before := changed
				for d := 0; d < n; d++ {
					if prev.Route(graph.NodeID(s), graph.NodeID(d)) != snap.Route(graph.NodeID(s), graph.NodeID(d)) {
						changed++
					}
				}
				if !hit && changed == before && rowAt(snap.over, s) != rowAt(prev.over, s) {
					t.Fatalf("%s: source %d serves the same routes from a new row", tag, s)
				}
			}
			if wrote := snap.Net().Stats().FECUpdates - prev.Net().Stats().FECUpdates; wrote != changed {
				t.Fatalf("%s: %d FEC writes for %d changed routes", tag, wrote, changed)
			}
			if !hit && snap.over != nil && sameRows(snap.over, prev.over) {
				aliased++
			}
			fecCarriesRoutes(t, snap, tag)
			prev = snap
		}

		rng := rand.New(rand.NewSource(17))
		for episode := 0; episode < 12; episode++ {
			links := slices.Clone(pool)
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			links = links[:3]
			for _, ed := range links {
				step(ed, false)
			}
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			for _, ed := range links {
				step(ed, true)
			}
		}
		st := e.Stats()
		if st.PlanCacheHits == 0 || st.PlanCacheMiss == 0 || aliased == 0 || evicted != (cacheCap > 0) {
			t.Fatalf("cap %d: %d hits, %d misses, %d aliased plans, evicted %v: the schedule skipped an arm",
				cacheCap, st.PlanCacheHits, st.PlanCacheMiss, aliased, evicted)
		}
	}
}
