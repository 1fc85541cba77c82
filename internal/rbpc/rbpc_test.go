package rbpc

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/ldp"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/sim"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

func mustDeliver(t *testing.T, net *mpls.Network, src, dst graph.NodeID) *mpls.Packet {
	t.Helper()
	pkt, err := net.SendIP(src, dst)
	if err != nil {
		t.Fatalf("SendIP(%d,%d): %v (trace %v)", src, dst, err, pkt)
	}
	if pkt.At != dst {
		t.Fatalf("packet for %d delivered at %d", dst, pkt.At)
	}
	return pkt
}

func TestProvisioningAndPrimaries(t *testing.T) {
	s, err := NewSystem(topology.Ring(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every ordered pair must be routable out of the box, on its primary.
	p := s.Export()
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			pkt := mustDeliver(t, s.Net(), graph.NodeID(src), graph.NodeID(dst))
			if pkt.Hops > 2 {
				t.Errorf("%d->%d took %d hops on C4", src, dst, pkt.Hops)
			}
			idx, ok := p.Primary(graph.NodeID(src), graph.NodeID(dst))
			if !ok {
				t.Fatalf("%d->%d has no primary", src, dst)
			}
			between, _ := p.Base.Between(graph.NodeID(src), graph.NodeID(dst))
			if prim := p.BaseLSPs[idx]; !prim.Path.Equal(between) || prim.Path.Hops() != pkt.Hops {
				t.Errorf("%d->%d: primary %v (the base set's path is %v), delivered in %d hops", src, dst, prim.Path, between, pkt.Hops)
			}
		}
		if _, ok := p.Primary(graph.NodeID(src), graph.NodeID(src)); ok {
			t.Errorf("self-pair %d->%d has a primary", src, src)
		}
	}
	// A base path's position is its LSP's.
	for i, bp := range p.Base.All() {
		if l := p.BaseLSPs[i]; l == nil || !l.Path.Equal(bp) || l != p.LSPs[bp.Key()] {
			t.Fatalf("base path %d (%v) is not at its position in the LSP table", i, bp)
		}
	}

	// A hot-set provision serves its listed sources only: the others keep
	// their base paths (the 1-hop ones) but have no primary and no FEC row.
	hot, err := NewSystem(topology.Ring(4), Config{EdgeLSPs: true, Sources: []graph.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	hp := hot.Export()
	if !slices.Equal(hp.Serves, []bool{false, true, false, false}) {
		t.Fatalf("hot set {1} serves %v", hp.Serves)
	}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			_, ok := hp.Primary(graph.NodeID(src), graph.NodeID(dst))
			_, sendErr := hot.Net().SendIP(graph.NodeID(src), graph.NodeID(dst))
			if want := src == 1 && dst != 1; ok != want || (sendErr == nil) != want {
				t.Errorf("hot set {1}: %d->%d has a primary %v and delivers %v, want %v", src, dst, ok, sendErr == nil, want)
			}
		}
	}
	mask := hp.PrimaryMask()
	for i, bp := range hp.Base.All() {
		idx, ok := hp.Primary(bp.Src(), bp.Dst())
		if want := ok && idx == i; mask[i] != want {
			t.Errorf("mask[%d] (%v) = %v, want %v", i, bp, mask[i], want)
		}
	}
}

// TestNewSystemRefusesForeignSources: a hot source that is not a node of
// the graph, or is listed twice, is refused by both builders (NewSystem
// and WriteProvision) with an error naming it, before anything is
// provisioned — instead of indexing past the graph's nodes, or walking the
// repeated source's tree into the base set twice.
func TestNewSystemRefusesForeignSources(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sources []graph.NodeID
		want    string
	}{
		{"past-the-last-node", []graph.NodeID{1, 9}, "hot source 9 is not a node"},
		{"negative", []graph.NodeID{1, -1}, "hot source -1 is not a node"},
		{"repeated", []graph.NodeID{2, 1, 3, 1}, "hot source 1 is listed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{EdgeLSPs: true, Sources: tc.sources}
			s, err := NewSystem(topology.Ring(4), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewSystem = %v, %v; want an error saying %q", s, err, tc.want)
			}
			p, err := WriteProvision(topology.Ring(4), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WriteProvision = %v, %v; want an error saying %q", p.Base, err, tc.want)
			}
		})
	}
}

// TestServableRequiresExactWeights: the serving stack's door refuses a graph
// whose path sums are not exact in a float64 — a weight that is not a
// positive integer value, or a total past 2^53 — naming the link or the
// total, while the System provisions it and core.DecomposeSparse restores
// over it all the same; integer weights of any size below the total pass.
func TestServableRequiresExactWeights(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights [3]float64 // a triangle's links
		refuse  string     // "" = servable
	}{
		{"unit", [3]float64{1, 1, 1}, ""},
		{"integers", [3]float64{3, 40, 1 << 40}, ""},
		{"total-at-2^53", [3]float64{1 << 52, 1 << 51, 1 << 51}, ""},
		{"fraction", [3]float64{1, 2.5, 1}, "link 1 (1-2) has weight 2.5"},
		{"below-one", [3]float64{0.5, 1, 1}, "link 0 (0-1) has weight 0.5"},
		{"total-past-2^53", [3]float64{1 << 52, 1 << 52, 2}, "total 9.007199254740994e+15"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(3)
			g.AddEdge(0, 1, tc.weights[0])
			g.AddEdge(1, 2, tc.weights[1])
			g.AddEdge(2, 0, tc.weights[2])
			s, err := NewSystem(g, DefaultConfig())
			if err != nil {
				t.Fatalf("the System refused the graph: %v", err)
			}
			err = s.Export().Servable()
			switch {
			case tc.refuse == "" && err != nil:
				t.Fatalf("Servable() = %v, want nil", err)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Fatalf("Servable() = %v, want an error naming %q", err, tc.refuse)
			}
			if dec, ok := core.DecomposeSparse(s.Base(), graph.FailEdges(g, 0), 0, 1); !ok || dec.Concat().Hops() != 2 {
				t.Fatalf("no 2-hop restoration of 0->1 around link 0: %v, %v", dec, ok)
			}
		})
	}
}

func TestBaselineDeliversAfterResignaling(t *testing.T) {
	g := topology.Ring(6)
	eng := &sim.Engine{}
	bal, err := NewBaseline(g, eng, ldp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-failure delivery.
	mustDeliver(t, bal.Net(), 0, 3)
	e, _ := g.FindEdge(0, 1)
	bal.FailLink(e)
	// Mid-signaling: the broken pairs blackhole.
	if _, err := bal.Net().SendIP(0, 1); err == nil {
		t.Error("delivered during re-signaling window")
	}
	eng.Run()
	if pkt := mustDeliver(t, bal.Net(), 0, 1); pkt.Hops != 5 {
		t.Errorf("baseline detour = %d hops, want 5", pkt.Hops)
	}
	if bal.RouteOf(0, 1) == nil {
		t.Error("RouteOf nil after restoration")
	}
}

func TestBaselineDisconnectedPair(t *testing.T) {
	g := topology.Line(3)
	eng := &sim.Engine{}
	bal, err := NewBaseline(g, eng, ldp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := g.FindEdge(0, 1)
	bal.FailLink(e)
	eng.Run()
	if _, err := bal.Net().SendIP(0, 1); err == nil {
		t.Error("delivered across partition")
	}
	if bal.RouteOf(0, 1) != nil {
		t.Error("route exists across partition")
	}
}

// treeCounter is walkBase as FromSources reads it, noting the most trees its
// oracle holds once it has handed one out. FromSources asks for trees from
// several goroutines at once.
type treeCounter struct {
	*paths.AllShortest
	mu   sync.Mutex
	most int
}

func (c *treeCounter) Tree(s graph.NodeID) *spath.Tree {
	t := c.AllShortest.Tree(s)
	c.mu.Lock()
	c.most = max(c.most, c.Oracle().CachedTrees())
	c.mu.Unlock()
	return t
}

// TestWalkRetainsOneTree: provisioning walks each source's tree once, and
// the oracle it walks holds at most one tree at any point of the walk, where
// a memoizing one ends it holding all n; over four walkers each holds only
// the tree it walks besides. The base set is the memoizing oracle's, path
// for path and cost for cost.
func TestWalkRetainsOneTree(t *testing.T) {
	g := topology.PaperAS(1, 0.05)
	srcs := make([]graph.NodeID, g.Order())
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			walk := &treeCounter{AllShortest: walkBase(g)}
			got := paths.FromSources(walk, srcs)
			if walk.most != 1 {
				t.Fatalf("the walk's oracle held up to %d trees, want 1", walk.most)
			}
			sameAsMemoized(t, g, srcs, got)
		})
	}
}

// sameAsMemoized fails unless got is the base set walked off a memoizing
// oracle, path for path and cost for cost, and that oracle's count sees its
// n trees.
func sameAsMemoized(t *testing.T, g *graph.Graph, srcs []graph.NodeID, got *paths.Explicit) {
	t.Helper()
	memo := &treeCounter{AllShortest: paths.NewAllShortest(g)}
	want := paths.FromSources(memo, srcs)
	if memo.most != g.Order() {
		t.Fatalf("a memoizing oracle held up to %d trees over %d sources: the count sees nothing", memo.most, g.Order())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d base paths, the memoizing walk's %d", got.Len(), want.Len())
	}
	for i, p := range want.All() {
		if k := int32(i); !got.All()[i].Equal(p) || got.CostAt(k) != want.CostAt(k) {
			t.Fatalf("base path %d is %v at %v, the memoizing walk's %v at %v", i, got.All()[i], got.CostAt(k), p, want.CostAt(k))
		}
	}
}
