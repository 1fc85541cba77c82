package rbpc_test

import (
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/topology"
)

// provisions are the shapes membership is checked on: the benchmark's AS
// stand-in with edge LSPs (a base set built source by source, whose links
// list their primaries in (src, dst) order), a subpath closure (whose links
// do not), and a hot set (whose unserved sources keep base paths but have
// no primaries).
func provisions(t *testing.T) map[string]rbpc.Provision {
	t.Helper()
	out := make(map[string]rbpc.Provision)
	for name, tc := range map[string]struct {
		g   *graph.Graph
		cfg rbpc.Config
	}{
		"as-0.05":        {topology.PaperAS(1, 0.05), rbpc.Config{EdgeLSPs: true}},
		"waxman-closure": {topology.Waxman(30, 0.8, 0.5, 4), rbpc.DefaultConfig()},
		"waxman-hot-set": {topology.Waxman(30, 0.8, 0.5, 4), rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{3, 7, 8, 20, 29}}},
	} {
		sys, err := rbpc.NewSystem(tc.g, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sys.Export()
	}
	return out
}

// primaryPairsByLink is the reference membership, built from
// Provision.Primary over every pair: by link, the pairs whose primary
// crosses it, in (src, dst) order.
func primaryPairsByLink(p rbpc.Provision) [][]graph.NodePair {
	byLink := make([][]graph.NodePair, p.Graph.Size())
	for _, pr := range primaryPairs(p) {
		idx, _ := p.Primary(pr.Src, pr.Dst)
		for _, ed := range p.BaseLSPs[idx].Path.Edges {
			byLink[ed] = append(byLink[ed], graph.NodePair(pr))
		}
	}
	return byLink
}

// TestAffectedPairsMatchPrimaries: for every link, an engine's affected
// pairs — the base set's paths through the link, filtered by the primary
// mask — equal, order included, the reference list built from
// Provision.Primary over every pair, on every provision shape and on each
// shard slice of the AS and closure provisions. The closure case is not
// vacuous: some link meets its primaries out of (src, dst) order.
func TestAffectedPairsMatchPrimaries(t *testing.T) {
	check := func(t *testing.T, p rbpc.Provision) {
		e, err := engine.New(p, engine.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		want := primaryPairsByLink(p)
		total := 0
		for ed := range want {
			got := e.AffectedPairs(graph.EdgeID(ed))
			if !slices.Equal(got, want[ed]) {
				t.Fatalf("link %d: affected pairs %v, the primaries crossing it %v", ed, got, want[ed])
			}
			total += len(got)
		}
		if total == 0 {
			t.Fatal("vacuous: no link carries a primary")
		}
	}
	for name, p := range provisions(t) {
		t.Run(name, func(t *testing.T) {
			check(t, p)
			if name == "waxman-closure" {
				mask, all, unsorted := p.PrimaryMask(), p.Base.All(), 0
				for ed := 0; ed < p.Graph.Size(); ed++ {
					var met []graph.NodePair
					for _, idx := range p.Base.IndicesThroughEdge(graph.EdgeID(ed)) {
						if mask[idx] {
							met = append(met, graph.NodePair{Src: all[idx].Src(), Dst: all[idx].Dst()})
						}
					}
					if !slices.IsSortedFunc(met, graph.NodePair.Compare) {
						unsorted++
					}
				}
				if unsorted == 0 {
					t.Fatal("vacuous: every link meets its primaries in (src, dst) order")
				}
			}
			if name == "waxman-hot-set" {
				return
			}
			shards := 2
			owners, err := shard.NewOwners(shards, p.Graph.Order())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				check(t, shard.SliceProvision(p, owners, i))
			}
		})
	}
}

// TestMembershipCountsMatchPairCounts: over a 400-event churn schedule, one
// event a transition, the pairs each transition counts entering and leaving
// the plan (the IncrementalStats deltas, read off the base paths' liveness
// counts) equal those of a failed-link count per pair kept here over the
// pairs' primaries: entering when it leaves zero, leaving when it returns.
func TestMembershipCountsMatchPairCounts(t *testing.T) {
	provs := provisions(t)
	for _, name := range []string{"as-0.05", "waxman-closure"} {
		t.Run(name, func(t *testing.T) {
			p := provs[name]
			e, err := engine.New(p, engine.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			byLink := primaryPairsByLink(p)
			count := make(map[graph.NodePair]int)
			var last engine.IncrementalStats
			stayed := 0
			events := failure.ChurnSchedule(p.Graph, 400, 3, rand.New(rand.NewSource(29)))
			for i, ev := range events {
				var entering, leaving int64
				for _, pr := range byLink[ev.Edge] {
					switch {
					case ev.Repair:
						if count[pr]--; count[pr] == 0 {
							leaving++
						} else {
							stayed++
						}
					default:
						if count[pr]++; count[pr] == 1 {
							entering++
						}
					}
				}
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
				st := e.Stats().Incremental
				if got := st.Entering - last.Entering; got != entering {
					t.Fatalf("event %d (%+v): %d pairs entered, the pair counts say %d", i, ev, got, entering)
				}
				if got := st.Leaving - last.Leaving; got != leaving {
					t.Fatalf("event %d (%+v): %d pairs left, the pair counts say %d", i, ev, got, leaving)
				}
				last = st
			}
			if last.Entering == 0 || last.Entering != last.Leaving || stayed == 0 {
				t.Fatalf("vacuous: %d entered, %d left, %d repairs left a pair's primary broken",
					last.Entering, last.Leaving, stayed)
			}
		})
	}
}
