package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

// sendDeliversServed is the writer's one forwarding invariant, checked from
// the outside: at a published epoch, for every materialized (src, dst), the
// route whose LSPs Send pushes is the pair's entry in the matrix (the
// overlay's, else the canonical one), and the packet it injects is
// delivered at dst iff the snapshot serves the pair a route, and then walks
// as many links as that route has — the components of a source answer, the
// path of a local one. A hybrid source the flood has not reached serves its
// local answer over whatever stack it pushed before the transition and is
// skipped (TestSendPushesTheRow covers it).
func sendDeliversServed(t *testing.T, snap *Snapshot, tag string) {
	t.Helper()
	n := len(snap.canon.at)
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
			entry, ok := rowsGet(snap.over, src, dst)
			if !ok {
				entry = snap.canon.route(src, dst)
			}
			if fec := snap.fecRoute(src, dst); fec != entry {
				t.Fatalf("%s (failed %v): pair %d->%d pushes %v, its entry %v stands for %v", tag, snap.Failed(), s, d, storedStack(fec), entry, storedStack(entry))
			}
			rt := snap.Route(src, dst)
			pkt, err := snap.Send(src, dst)
			if delivered := err == nil && pkt.At == dst; delivered != (rt != nil) {
				t.Fatalf("%s (failed %v): pair %d->%d routable %v, Send delivered %v (%v)", tag, snap.Failed(), s, d, rt != nil, delivered, err)
			}
			if rt == nil {
				continue
			}
			hops := rt.Path.Hops()
			for _, l := range rt.LSPs {
				hops += l.Path.Hops()
			}
			if pkt.Hops != hops {
				t.Fatalf("%s (failed %v): pair %d->%d Send walked %d links, the served route has %d", tag, snap.Failed(), s, d, pkt.Hops, hops)
			}
		}
	}
}

// storedStack is the FEC entry a source route stands for, spelled out label
// by label: its components' self-labels, bottom-first, so the last
// component's is at the bottom and a canonical route pushes its primary's
// self-label alone. Nil for no route.
func storedStack(rt *Route) []mpls.Label {
	if rt == nil {
		return nil
	}
	stack := make([]mpls.Label, len(rt.LSPs))
	for i, l := range rt.LSPs {
		stack[len(stack)-1-i] = l.SelfLabel()
	}
	return stack
}

// walkOf is the path a source route's components concatenate to.
func walkOf(rt *Route) graph.Path {
	p := rt.LSPs[0].Path
	for _, l := range rt.LSPs[1:] {
		p = p.Concat(l.Path)
	}
	return p
}

// TestSendPushesTheRow: a source's row in the snapshot is its FEC table.
// The source-scheme locksteps (TestOverlayMatchesFullRebuild,
// TestIncrementalBitIdenticalToFullRebuild) hold both of their engines to
// sendDeliversServed after every flush; here every other scheme walks a
// seeded churn schedule under it, and a hybrid source is followed through
// the window in which it has not heard of a transition.
func TestSendPushesTheRow(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	for _, scheme := range []Scheme{SchemeLocal, SchemeBypass, SchemeHybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, _ := newEngine(t, g, Config{Scheme: scheme})
			sendDeliversServed(t, e.Snapshot(), "pristine")
			for step, ev := range failure.ChurnSchedule(g, 30, 3, rand.New(rand.NewSource(5))) {
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
				sendDeliversServed(t, e.Snapshot(), fmt.Sprintf("step %d", step))
			}
		})
	}
	t.Run("hybrid before the horizon", func(t *testing.T) {
		for _, first := range g.Edges() {
			if sendBeforeHorizon(t, g, first.ID) {
				return
			}
		}
		t.Fatal("no link of this topology restores a pair over a route a second failure can cross")
	})
}

// sendBeforeHorizon runs the two-transition case on a fake clock. The first
// transition fails link first and converges, leaving some pair restored over
// the source route r1; the second fails a link of r1. Until src's flood
// horizon passes, both epochs of the second transition serve the pair its
// local answer while src still pushes r1's stack — the first transition's,
// not the canonical one — which the patched ILM rows carry around the new
// failure; once it passes, phase two serves and pushes the new source route,
// and phase one, which has no source plan to switch to, does not change. It
// reports false when no pair of first's fits.
func sendBeforeHorizon(t *testing.T, g *graph.Graph, first graph.EdgeID) bool {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var epochs []*Snapshot
	e, _ := newEngine(t, g, Config{
		Scheme:  SchemeHybrid,
		Flood:   FloodConfig{Detect: 10 * time.Millisecond, PerHop: 10 * time.Millisecond},
		Clock:   clk.Now,
		OnEpoch: func(s *Snapshot) { epochs = append(epochs, s) },
	})
	e.Fail(first)
	e.Flush()
	clk.Advance(e.Snapshot().MaxHorizon() + time.Millisecond)
	s1 := e.Snapshot()

	// A pair the first transition restored, and a link of its restoration
	// route whose failure leaves the pair connected and both down links
	// bridgeable, so every bypass the second transition needs exists.
	var src, dst graph.NodeID
	var r1 *Route
	var walk graph.Path
	second, at := graph.EdgeID(-1), 0
search:
	for _, np := range e.AffectedPairs(first) {
		rt := s1.Route(np.Src, np.Dst)
		if rt == nil || rt.Via != SchemeSource || !s1.HorizonPassed(np.Src) {
			continue
		}
		p := walkOf(rt)
		for i, ed := range p.Edges {
			o := spath.NewOracle(graph.FailEdges(g, first, ed))
			bridged := func(id graph.EdgeID) bool {
				return o.Dist(g.Edge(id).U, g.Edge(id).V) != spath.Unreachable
			}
			if bridged(first) && bridged(ed) && o.Dist(np.Src, np.Dst) != spath.Unreachable {
				src, dst, r1, walk, second, at = np.Src, np.Dst, rt, p, ed, i
				break search
			}
		}
	}
	if r1 == nil {
		return false
	}

	e.Fail(second)
	e.Flush()
	if len(epochs) != 4 {
		t.Fatalf("two hybrid transitions published %d epochs, want 4", len(epochs))
	}
	phase1, phase2 := epochs[2], epochs[3]
	tag := fmt.Sprintf("links %d then %d, pair %d->%d", first, second, src, dst)

	// carriesFirst: the walk follows r1 to the new failure, leaves it there
	// for the bypass, and rejoins it on the far side.
	carriesFirst := func(snap *Snapshot, when string) {
		t.Helper()
		lr, affected := snap.LocalRoute(src, dst)
		if !affected || lr == nil || lr.Via != SchemeBypass || snap.Route(src, dst) != lr {
			t.Fatalf("%s, epoch %d %s: the local answer is not what is served", tag, snap.Epoch(), when)
		}
		if fec := snap.fecRoute(src, dst); fec != r1 {
			t.Fatalf("%s, epoch %d %s: src pushes %v, want the first transition's %v", tag, snap.Epoch(), when, storedStack(fec), storedStack(r1))
		}
		pkt, err := snap.Send(src, dst)
		if err != nil || pkt.At != dst {
			t.Fatalf("%s, epoch %d %s: Send: %v (%v)", tag, snap.Epoch(), when, pkt, err)
		}
		head, tail := walk.Nodes[:at+1], walk.Nodes[at+1:]
		if pkt.Hops <= walk.Hops() || !slices.Equal(pkt.Trace[:len(head)], head) || !slices.Equal(pkt.Trace[len(pkt.Trace)-len(tail):], tail) {
			t.Fatalf("%s, epoch %d %s: Send walked %v, want the first transition's route %v with link %d bypassed", tag, snap.Epoch(), when, pkt.Trace, walk.Nodes, second)
		}
	}
	if phase2.HorizonPassed(src) {
		t.Fatalf("%s: the horizon passed on a stopped clock", tag)
	}
	carriesFirst(phase1, "before the horizon")
	carriesFirst(phase2, "before the horizon")

	clk.Advance(phase2.MaxHorizon() + time.Millisecond)
	if !phase2.HorizonPassed(src) {
		t.Fatalf("%s: the horizon did not pass", tag)
	}
	carriesFirst(phase1, "after the horizon")
	r2 := phase2.Route(src, dst)
	if r2 == nil || r2.Via != SchemeSource || slices.Equal(r2.LSPs, r1.LSPs) {
		t.Fatalf("%s: after the horizon phase two serves %+v, want a new source route", tag, r2)
	}
	pkt, err := phase2.Send(src, dst)
	if want := walkOf(r2).Nodes; err != nil || !slices.Equal(pkt.Trace, want) {
		t.Fatalf("%s: after the horizon Send walked %v (%v), want the second transition's route %v", tag, pkt, err, want)
	}
	return true
}

// TestEngineNeverWritesItsNetwork: the engine lineage neither clones nor
// writes a network. It forwards over the provision's own, and over seeded
// churn on every scheme, every published epoch forwards over that
// pointer-identical network, whose write counters — ILM replacements, FEC
// updates, LSPs established — still read what the provision's did.
func TestEngineNeverWritesItsNetwork(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Net().Stats()
	if want.FECUpdates == 0 || want.LSPsEstablished == 0 {
		t.Fatalf("the provision installed nothing: %+v", want)
	}
	for _, scheme := range Schemes() {
		var e *Engine
		epochs, patched := 0, 0
		e, err := New(sys.Export(), Config{Scheme: scheme, OnEpoch: func(s *Snapshot) {
			epochs++
			patched += s.patch.Len()
			if s.net != e.net {
				t.Errorf("%v, epoch %d (failed %v): the epoch forwards over a network of its own", scheme, s.Epoch(), s.Failed())
			}
			got := s.net.Stats()
			if got.ILMReplacements != want.ILMReplacements || got.FECUpdates != want.FECUpdates || got.LSPsEstablished != want.LSPsEstablished {
				t.Errorf("%v, epoch %d (failed %v): the network reads %d ILM replacements, %d FEC updates, %d LSPs; the provision made %d, %d, %d",
					scheme, s.Epoch(), s.Failed(), got.ILMReplacements, got.FECUpdates, got.LSPsEstablished,
					want.ILMReplacements, want.FECUpdates, want.LSPsEstablished)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if e.net != sys.Net() {
			t.Fatalf("%v: the engine forwards over a network other than the provision's", scheme)
		}
		if e.Snapshot().net != e.net {
			t.Fatalf("%v: the pristine epoch forwards over a network of its own", scheme)
		}
		for _, ev := range failure.ChurnSchedule(g, 40, 3, rand.New(rand.NewSource(13))) {
			e.ApplyEvents([]failure.Event{ev})
			e.Flush()
		}
		if epochs == 0 || (patched != 0) != (scheme != SchemeSource) {
			t.Fatalf("%v: %d epochs published, %d rows patched over them", scheme, epochs, patched)
		}
	}
}

// TestTransitionsShareRows pins how little a transition builds, on
// plan-cache hits and misses alike. Over three-link episodes down and back,
// drawn from a small pool so failed-sets recur, at a cache squeezed to one
// plan, at the benchmark's three and unbounded — misses, hits, evictions and
// the repair-only alias — a hit publishes the cached rows slice itself, and a
// miss keeps the row pointer of every source none of whose pairs changed:
// the rows that moved are the paper's FEC delta, and nothing else is new.
func TestTransitionsShareRows(t *testing.T) {
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
			for s := 0; s < n && !hit; s++ {
				if rowAt(snap.over, s) == rowAt(prev.over, s) {
					continue
				}
				changed := false
				for d := 0; d < n && !changed; d++ {
					changed = prev.Route(graph.NodeID(s), graph.NodeID(d)) != snap.Route(graph.NodeID(s), graph.NodeID(d))
				}
				if !changed {
					t.Fatalf("%s: source %d serves the same routes from a new row", tag, s)
				}
			}
			if !hit && snap.over != nil && sameRows(snap.over, prev.over) {
				aliased++
			}
			sendDeliversServed(t, snap, tag)
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
