package rbpc_test

// The restoration schemes end to end on a provisioned System: the engine
// (internal/engine) restores over the System's export, and each epoch's
// packets walk the provisioned LSPs (Snapshot.Send). Source-router RBPC
// rewrites FEC rows only; local RBPC patches one ILM row per broken LSP at
// the adjacent router; hybrid runs the second, then the first as the
// modeled link-state flood reaches each source. Every repair direction is
// exercised too: a repaired failed-set must serve exactly what a system
// that never saw the failure serves.

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/ldp"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/sim"
	"rbpc/internal/topology"
)

// serve provisions g in full and starts an engine over it.
func serve(t *testing.T, g *graph.Graph, cfg engine.Config) (*rbpc.System, *engine.Engine) {
	t.Helper()
	s, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(s.Export(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return s, e
}

// fakeClock is the engine clock of the hybrid tests: time since it was
// zero, set by the test.
type fakeClock struct{ since atomic.Int64 }

func (c *fakeClock) now() time.Time      { return time.Unix(0, c.since.Load()) }
func (c *fakeClock) set(d time.Duration) { c.since.Store(int64(d)) }

// hybrid is a hybrid engine configuration on clk: 10 ms to detect, 1.1 ms
// a flood hop.
func hybrid(clk *fakeClock) engine.Config {
	return engine.Config{
		Scheme: engine.SchemeHybrid,
		Flood:  engine.FloodConfig{Detect: 10 * time.Millisecond, PerHop: 1100 * time.Microsecond},
		Clock:  clk.now,
	}
}

// apply fails (or repairs) links as one burst and waits for the epoch.
func apply(e *engine.Engine, repair bool, links ...graph.EdgeID) {
	evs := make([]failure.Event, len(links))
	for i, l := range links {
		evs[i] = failure.Event{Edge: l, Repair: repair}
	}
	e.ApplyEvents(evs)
	e.Flush()
}

// incident lists a router's links: failing them all is failing the router.
func incident(g *graph.Graph, r graph.NodeID) []graph.EdgeID {
	var links []graph.EdgeID
	g.VisitArcs(r, func(a graph.Arc) bool {
		links = append(links, a.Edge)
		return true
	})
	return links
}

func mustSend(t *testing.T, snap *engine.Snapshot, src, dst graph.NodeID) *mpls.Packet {
	t.Helper()
	pkt, err := snap.Send(src, dst)
	if err != nil {
		t.Fatalf("epoch %d (failed %v): Send(%d,%d): %v", snap.Epoch(), snap.Failed(), src, dst, err)
	}
	if pkt.At != dst {
		t.Fatalf("packet for %d delivered at %d", dst, pkt.At)
	}
	return pkt
}

func reachable(v graph.View, src, dst graph.NodeID) bool {
	return slices.Contains(graph.ReachableFrom(v, src), dst)
}

// deliversIffReachable sends every ordered pair through the epoch: a pair
// the failed view connects must be delivered without looping, any other
// dropped.
func deliversIffReachable(t *testing.T, g *graph.Graph, snap *engine.Snapshot, tag string) {
	t.Helper()
	fv := snap.View()
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			src, dst := graph.NodeID(s), graph.NodeID(d)
			pkt, err := snap.Send(src, dst)
			switch reach := reachable(fv, src, dst); {
			case reach && err != nil:
				t.Fatalf("%s: %d->%d undeliverable despite connectivity: %v", tag, s, d, err)
			case !reach && err == nil:
				t.Fatalf("%s: %d->%d delivered across a partition", tag, s, d)
			case err == nil && (pkt.Hops >= mpls.DefaultTTL || pkt.At != dst):
				t.Fatalf("%s: %d->%d looped or misdelivered (at %d after %d hops)", tag, s, d, pkt.At, pkt.Hops)
			}
		}
	}
}

// ilmAsProvisioned checks that the epoch forwards every base LSP's ILM rows
// as provisioned: no row patched.
func ilmAsProvisioned(t *testing.T, s *rbpc.System, snap *engine.Snapshot) {
	t.Helper()
	for _, lsp := range s.Export().BaseLSPs {
		check := func(r graph.NodeID, l mpls.Label) {
			want, _ := s.Net().Router(r).ILMEntryFor(l)
			got, ok := snap.ILMRow(r, l)
			if !ok || got.OutEdge != want.OutEdge || !slices.Equal(got.Out, want.Out) {
				t.Fatalf("epoch %d: router %d label %d reads %+v, provisioned %+v", snap.Epoch(), r, l, got, want)
			}
		}
		check(lsp.Ingress(), lsp.SelfLabel())
		for i := range lsp.Path.Edges {
			if l, ok := lsp.HopLabel(i); ok {
				check(lsp.Path.Nodes[i+1], l)
			}
		}
	}
}

// primaryPairs lists the pairs the provision has a primary for.
func primaryPairs(p rbpc.Provision) []rbpc.Pair {
	var out []rbpc.Pair
	n := p.Graph.Order()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if _, ok := p.Primary(graph.NodeID(src), graph.NodeID(dst)); ok {
				out = append(out, rbpc.Pair{Src: graph.NodeID(src), Dst: graph.NodeID(dst)})
			}
		}
	}
	return out
}

// assertPristine checks that every provisioned pair is served its
// pristine route again, and that nothing is failed or patched.
func assertPristine(t *testing.T, s *rbpc.System, pristine, snap *engine.Snapshot) {
	t.Helper()
	if len(snap.Failed()) != 0 {
		t.Fatalf("failures survive repair: %v", snap.Failed())
	}
	for _, pr := range primaryPairs(s.Export()) {
		if got := snap.Route(pr.Src, pr.Dst); got != pristine.Route(pr.Src, pr.Dst) {
			t.Fatalf("pair %v is not back on its primary: %+v", pr, got)
		}
	}
	ilmAsProvisioned(t, s, snap)
}

func TestSourceRBPCSingleFailure(t *testing.T) {
	s, e := serve(t, topology.Ring(4), engine.Config{})
	ed, _ := s.Graph().FindEdge(0, 1)
	apply(e, false, ed)
	snap := e.Snapshot()

	// Source-router reaction: FEC rewrites only.
	ilmAsProvisioned(t, s, snap)
	// Traffic flows again on the 3-hop detour.
	if pkt := mustSend(t, snap, 0, 1); pkt.Hops != 3 {
		t.Errorf("restored route = %d hops, want 3", pkt.Hops)
	}
	// With one base path per pair, C4 is the paper's remark: some single
	// failure forces 3 components (two trivial paths and an edge). The
	// concatenation must never exceed that.
	if r := snap.Route(0, 1); r == nil || len(r.LSPs) > 3 {
		t.Errorf("route %+v, want a concatenation of at most 3 LSPs on C4", r)
	}
}

func TestSourceRBPCRecovery(t *testing.T) {
	s, e := serve(t, topology.Ring(4), engine.Config{})
	ed, _ := s.Graph().FindEdge(0, 1)
	apply(e, false, ed)
	if pkt := mustSend(t, e.Snapshot(), 0, 1); pkt.Hops != 3 {
		t.Fatalf("detour hops = %d", pkt.Hops)
	}
	apply(e, true, ed)
	if pkt := mustSend(t, e.Snapshot(), 0, 1); pkt.Hops != 1 {
		t.Errorf("after recovery hops = %d, want 1", pkt.Hops)
	}
	if f := e.Snapshot().Failed(); len(f) != 0 {
		t.Errorf("failures still known after repair: %v", f)
	}
}

func TestSourceRBPCDoubleFailure(t *testing.T) {
	// K5 is 4-edge-connected: after two link failures every pair stays
	// routable, on provisioned LSPs alone.
	g := topology.Complete(5)
	s, e := serve(t, g, engine.Config{})
	e1, _ := g.FindEdge(0, 1)
	e2, _ := g.FindEdge(2, 3)
	apply(e, false, e1)
	apply(e, false, e2)
	deliversIffReachable(t, g, e.Snapshot(), "K5 minus two links")
	ilmAsProvisioned(t, s, e.Snapshot())
}

func TestDisconnectionHandled(t *testing.T) {
	// A line: failing the middle link separates the halves.
	g := topology.Line(4)
	_, e := serve(t, g, engine.Config{})
	ed, _ := g.FindEdge(1, 2)
	apply(e, false, ed)
	snap := e.Snapshot()
	if _, err := snap.Send(0, 3); err == nil {
		t.Error("packet delivered across a partition")
	}
	// Unaffected pairs still work.
	mustSend(t, snap, 0, 1)
	mustSend(t, snap, 2, 3)
	// Repair restores everything.
	apply(e, true, ed)
	mustSend(t, e.Snapshot(), 0, 3)
}

func TestLocalEndRoute(t *testing.T) {
	// Diamond + tail: LSP 0-1-2; link 1-2 fails; router 1 patches.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(3, 2, 1)
	s, e := serve(t, g, engine.Config{Scheme: engine.SchemeLocal})
	apply(e, false, e12)
	if st := e.Stats(); st.DetourHops.Count == 0 || st.LocalUnrestorable != 0 {
		t.Fatalf("patched=%d unrestorable=%d", st.DetourHops.Count, st.LocalUnrestorable)
	}
	// Source 0 has NOT updated its FEC; the patch alone must carry the
	// packet: 0 -> 1 -> 3 -> 2.
	if pkt := mustSend(t, e.Snapshot(), 0, 2); !slices.Equal(pkt.Trace, []graph.NodeID{0, 1, 3, 2}) {
		t.Fatalf("trace %v, want [0 1 3 2]", pkt.Trace)
	}
	// Repair: the provisioned rows and the original 2-hop route again.
	apply(e, true, e12)
	if pkt := mustSend(t, e.Snapshot(), 0, 2); pkt.Hops != 2 {
		t.Errorf("after repair: %d hops", pkt.Hops)
	}
	ilmAsProvisioned(t, s, e.Snapshot())
}

func TestLocalEdgeBypass(t *testing.T) {
	// C4: LSP 0-1 fails at its only link; router 0 is the ingress; the
	// bypass 0-3-2-1 resumes at 1 (the egress pop).
	g := topology.Ring(4)
	_, e := serve(t, g, engine.Config{Scheme: engine.SchemeBypass})
	ed, _ := g.FindEdge(0, 1)
	apply(e, false, ed)
	if st := e.Stats(); st.DetourHops.Count == 0 || st.LocalUnrestorable != 0 {
		t.Fatalf("patched=%d unrestorable=%d", st.DetourHops.Count, st.LocalUnrestorable)
	}
	if pkt := mustSend(t, e.Snapshot(), 0, 1); pkt.Hops != 3 {
		t.Errorf("bypassed route = %d hops, want 3", pkt.Hops)
	}
	// Longer LSPs resume correctly too: 3 -> 1 originally 3-0-1.
	mustSend(t, e.Snapshot(), 3, 1)
}

func TestLocalPatchUnrestorable(t *testing.T) {
	// Line: failing the middle link cannot be bypassed.
	g := topology.Line(4)
	_, e := serve(t, g, engine.Config{Scheme: engine.SchemeBypass})
	ed, _ := g.FindEdge(1, 2)
	apply(e, false, ed)
	if st := e.Stats(); st.DetourHops.Count != 0 || st.LocalUnrestorable == 0 {
		t.Errorf("patched=%d unrestorable=%d on a bridge", st.DetourHops.Count, st.LocalUnrestorable)
	}
}

func TestPairsThrough(t *testing.T) {
	g := topology.Ring(4)
	_, e := serve(t, g, engine.Config{})
	ed, _ := g.FindEdge(0, 1)
	prs := e.AffectedPairs(ed)
	// Must at least include (0,1) and (1,0).
	if !slices.Contains(prs, graph.NodePair{Src: 0, Dst: 1}) || !slices.Contains(prs, graph.NodePair{Src: 1, Dst: 0}) {
		t.Errorf("pairs through edge: %v", prs)
	}
}

// TestRandomFailuresAlwaysDeliverOrPartition: property-style integration
// test over random topologies: after arbitrary single and double failures
// and source RBPC, every pair either delivers or is genuinely partitioned.
func TestRandomFailuresAlwaysDeliverOrPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := topology.Waxman(14, 0.7, 0.4, int64(trial))
		_, e := serve(t, g, engine.Config{})
		for f := 0; f < 2; f++ {
			apply(e, false, graph.EdgeID(rng.Intn(g.Size())))
		}
		deliversIffReachable(t, g, e.Snapshot(), "random failures")
	}
}

// TestNoLoopsUnderLocalPatching: local patches must never loop a packet
// (TTL would catch it); single failures on random graphs.
func TestNoLoopsUnderLocalPatching(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := topology.Waxman(12, 0.8, 0.4, int64(100+trial))
		_, e := serve(t, g, engine.Config{Scheme: engine.SchemeBypass})
		apply(e, false, graph.EdgeID(trial%g.Size()))
		deliversIffReachable(t, g, e.Snapshot(), "bypass")
	}
}

// The paper's warning (Section 4.2): "local re-routing alone will not
// allow loop-free restoration in the face of multiple link failures.
// Hence, routers must monitor the dynamic topology via the link-state
// protocol." The engine patches every epoch knowing its whole failed-set,
// so a patch never detours through another dead link; the next three
// tests hold it to that, and to TTL containment in the data plane.

// TestLocalOnlyDoubleFailureIsolatedKnowledge: both links into router 2 of
// C4 die. 2 is genuinely unreachable, so no packet for it can be delivered
// — but every one must be dropped cleanly, none circulate.
func TestLocalOnlyDoubleFailureIsolatedKnowledge(t *testing.T) {
	g := topology.Ring(4)
	_, e := serve(t, g, engine.Config{Scheme: engine.SchemeLocal})
	e12, _ := g.FindEdge(1, 2)
	e32, _ := g.FindEdge(3, 2)
	apply(e, false, e12, e32)
	for src := 0; src < 4; src++ {
		if src == 2 {
			continue
		}
		pkt, err := e.Snapshot().Send(graph.NodeID(src), 2)
		if err == nil {
			t.Fatalf("delivered %d->2 across a double partition (trace %v)", src, pkt.Trace)
		}
		// The error must be a clean drop — never a hang (returning at all
		// proves termination) and never a silent misdelivery.
		if !errors.Is(err, mpls.ErrLinkDown) && !errors.Is(err, mpls.ErrTTLExpired) &&
			!errors.Is(err, mpls.ErrLabelLoop) && !errors.Is(err, mpls.ErrNoRoute) {
			t.Fatalf("unexpected drop reason for %d->2: %v", src, err)
		}
	}
}

// TestLocalPatchWithSharedKnowledgeAvoidsDeadDetours: two failures at router
// 1 of K5, the second after the first: the detours avoid both dead links
// and deliver.
func TestLocalPatchWithSharedKnowledgeAvoidsDeadDetours(t *testing.T) {
	g := topology.Complete(5)
	_, e := serve(t, g, engine.Config{Scheme: engine.SchemeLocal})
	e01, _ := g.FindEdge(0, 1)
	e21, _ := g.FindEdge(2, 1)
	apply(e, false, e01)
	apply(e, false, e21)
	// Every source still reaches 1 (K5 minus two edges at node 1 leaves
	// degree 2), and no packet may loop.
	for src := 0; src < 5; src++ {
		if src != 1 {
			mustSend(t, e.Snapshot(), graph.NodeID(src), 1)
		}
	}
}

// TestHybridIsLoopFreeUnderDoubleFailure: the full machinery (modeled flood
// + local patches + source updates) under two failures close in time:
// every packet either delivers or is cleanly dropped, never loops past the
// TTL, throughout the convergence window.
func TestHybridIsLoopFreeUnderDoubleFailure(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.4, 77)
	var clk fakeClock
	_, e := serve(t, g, hybrid(&clk))
	apply(e, false, 0)
	// Second failure mid-flood of the first.
	clk.set(10500 * time.Microsecond)
	apply(e, false, 1)
	snap := e.Snapshot()
	for _, checkpoint := range []time.Duration{11, 13, 15, 1000} {
		clk.set(checkpoint * time.Millisecond)
		for src := 0; src < g.Order(); src++ {
			for dst := 0; dst < g.Order(); dst++ {
				if src == dst {
					continue
				}
				pkt, err := snap.Send(graph.NodeID(src), graph.NodeID(dst))
				if err == nil && (pkt.Hops >= mpls.DefaultTTL || pkt.At != graph.NodeID(dst)) {
					t.Fatalf("t=%v: %d->%d looped or misdelivered", checkpoint, src, dst)
				}
			}
		}
	}
	// After convergence, everything reachable must deliver.
	if !snap.Converged() {
		t.Fatal("not converged a second after the failures")
	}
	deliversIffReachable(t, g, snap, "converged")
}

func TestHybridTimeline(t *testing.T) {
	g := topology.Ring(6)
	var clk fakeClock
	_, e := serve(t, g, hybrid(&clk))
	ed, _ := g.FindEdge(0, 1)
	apply(e, false, ed)
	snap := e.Snapshot()

	// From the publish the local patch carries the traffic — before the
	// flood reaches any source.
	if _, affected := snap.LocalRoute(0, 1); !affected {
		t.Fatal("local patch missing at publish")
	}
	if pkt := mustSend(t, snap, 0, 1); pkt.Hops != 5 {
		t.Errorf("bypassed route = %d hops, want 5 on a 6-ring", pkt.Hops)
	}
	// Just past detection: the adjacent sources 0 and 1 have switched,
	// the distant ones have not heard yet.
	clk.set(10500 * time.Microsecond)
	var late []graph.NodeID
	for _, pr := range e.AffectedPairs(ed) {
		if adjacent := pr.Src == 0 || pr.Src == 1; snap.HorizonPassed(pr.Src) != adjacent {
			t.Errorf("source %d switched %v at 10.5ms; adjacent %v", pr.Src, snap.HorizonPassed(pr.Src), adjacent)
		}
		if pr.Src != 0 && pr.Src != 1 {
			late = append(late, pr.Src)
		}
	}
	if len(late) == 0 {
		t.Fatal("no distant source to spread the flood over")
	}
	// Run to convergence: all sources updated, routes optimal.
	clk.set(snap.MaxHorizon())
	if !snap.Converged() {
		t.Fatal("not converged at the flood's last horizon")
	}
	for _, s := range late {
		if !snap.HorizonPassed(s) {
			t.Errorf("source %d still waits for the flood after convergence", s)
		}
	}
	if pkt := mustSend(t, snap, 0, 1); pkt.Hops != 5 {
		t.Errorf("final route = %d hops", pkt.Hops)
	}
}

func TestHybridRecovery(t *testing.T) {
	g := topology.Ring(6)
	var clk fakeClock
	s, e := serve(t, g, hybrid(&clk))
	pristine := e.Snapshot()
	ed, _ := g.FindEdge(0, 1)
	apply(e, false, ed)
	apply(e, true, ed)
	clk.set(time.Second)
	snap := e.Snapshot()
	if _, affected := snap.LocalRoute(0, 1); affected {
		t.Error("patches not undone after recovery")
	}
	if pkt := mustSend(t, snap, 0, 1); pkt.Hops != 1 {
		t.Errorf("post-recovery hops = %d, want 1", pkt.Hops)
	}
	assertPristine(t, s, pristine, snap)
}

func TestHybridBlackholeWindowShorterThanBaseline(t *testing.T) {
	// The punchline experiment: RBPC's blackhole window is the detection
	// delay; the baseline's is detection + full LDP re-signaling.
	g := topology.Ring(8)
	var clk fakeClock
	cfg := hybrid(&clk)
	_, e := serve(t, g, cfg)
	balEng := &sim.Engine{}
	bal, err := rbpc.NewBaseline(g, balEng, ldp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bal.NotifyDelay = sim.Time(cfg.Flood.Detect) / sim.Time(time.Millisecond)

	ed, _ := g.FindEdge(0, 1)
	apply(e, false, ed)
	mustSend(t, e.Snapshot(), 0, 1) // the bypass serves from the publish
	bal.FailLink(ed)
	balEng.Run()

	var balLast sim.Time
	for _, at := range bal.RestoredAt {
		balLast = max(balLast, at)
	}
	if len(bal.RestoredAt) == 0 {
		t.Fatal("baseline restored nothing")
	}
	if !(bal.NotifyDelay < balLast) {
		t.Errorf("RBPC local restoration at detection (%v ms) not faster than baseline completion at %v", bal.NotifyDelay, balLast)
	}
	// Baseline pays signaling; RBPC pays none after provisioning.
	if bal.Signaling().Total() == 0 {
		t.Error("baseline sent no LDP messages")
	}
}

func TestHybridMultipleFailures(t *testing.T) {
	// Dense graph, two sequential failures with floods in between: the
	// system must converge to working routes.
	g := topology.Complete(6)
	var clk fakeClock
	_, e := serve(t, g, hybrid(&clk))
	e1, _ := g.FindEdge(0, 1)
	e2, _ := g.FindEdge(0, 2)
	apply(e, false, e1)
	clk.set(time.Second)
	apply(e, false, e2)
	clk.set(2 * time.Second)
	if !e.Snapshot().Converged() {
		t.Fatal("not converged a second after the second failure")
	}
	deliversIffReachable(t, g, e.Snapshot(), "K6 minus two links")
}

func TestHybridRouterFailure(t *testing.T) {
	// Wheel: hub 0 plus 5-cycle rim. The hub dies; the hybrid must restore
	// all rim traffic around the rim as floods propagate.
	g := graph.New(6)
	for i := 1; i <= 5; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	for i := 1; i <= 5; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i%5+1), 1)
	}
	var clk fakeClock
	_, e := serve(t, g, hybrid(&clk))
	links := incident(g, 0)
	if len(links) != 5 {
		t.Fatalf("hub has %d links", len(links))
	}
	apply(e, false, links...)
	// A bypass around a dead router has nowhere to resume, so rim traffic
	// that crossed the hub waits for its source to hear the flood.
	clk.set(time.Second)
	for src := 1; src <= 5; src++ {
		for dst := 1; dst <= 5; dst++ {
			if src == dst {
				continue
			}
			if pkt := mustSend(t, e.Snapshot(), graph.NodeID(src), graph.NodeID(dst)); slices.Contains(pkt.Trace, 0) {
				t.Fatalf("%d->%d crossed the dead hub", src, dst)
			}
		}
	}
	// Repair: hub routing returns.
	apply(e, true, links...)
	clk.set(2 * time.Second)
	if pkt := mustSend(t, e.Snapshot(), 1, 3); pkt.Hops != 2 {
		t.Errorf("post-repair 1->3 = %d hops, want 2", pkt.Hops)
	}
	mustSend(t, e.Snapshot(), 1, 0)
}

func TestRepairLinkRestoresPrimaries(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 3)
	s, e := serve(t, g, engine.Config{})
	pristine := e.Snapshot()
	// Fail every link once, repairing after each: the engine must return
	// to the pristine primary routing every time.
	for ed := 0; ed < g.Size(); ed++ {
		apply(e, false, graph.EdgeID(ed))
		apply(e, true, graph.EdgeID(ed))
		assertPristine(t, s, pristine, e.Snapshot())
	}
}

func TestPartialRepairReroutesOptimally(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 5)
	s, e := serve(t, g, engine.Config{})
	e1, e2 := graph.EdgeID(0), graph.EdgeID(g.Size()/2)
	apply(e, false, e1)
	apply(e, false, e2)
	apply(e, true, e1)

	// A reference engine that only ever saw e2 fail must agree with the
	// partially repaired one on every pair: same routability, same cost.
	_, ref := serve(t, g, engine.Config{})
	apply(ref, false, e2)
	for _, pr := range primaryPairs(s.Export()) {
		got := e.Snapshot().Route(pr.Src, pr.Dst)
		want := ref.Snapshot().Route(pr.Src, pr.Dst)
		if (got == nil) != (want == nil) {
			t.Fatalf("pair %v: routable mismatch after partial repair (got %v, want %v)", pr, got != nil, want != nil)
		}
		if got != nil && got.Cost != want.Cost {
			t.Fatalf("pair %v: cost %v after partial repair, reference %v", pr, got.Cost, want.Cost)
		}
	}
}

func TestRepairRouterRestoresRoutes(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 7)
	s, e := serve(t, g, engine.Config{})
	pristine := e.Snapshot()
	// Pick the highest-degree router so the failure actually reroutes.
	var r graph.NodeID
	best := -1
	for v := 0; v < g.Order(); v++ {
		if d := g.Degree(graph.NodeID(v)); d > best {
			best, r = d, graph.NodeID(v)
		}
	}
	links := incident(g, r)
	apply(e, false, links...)
	if f := e.Snapshot().Failed(); len(f) != best {
		t.Fatalf("the epoch holds %d failures, want the router's %d links", len(f), best)
	}
	apply(e, true, links...)
	assertPristine(t, s, pristine, e.Snapshot())
}

func TestUndoLocalPatchesRestoresILMRows(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 9)
	s, e := serve(t, g, engine.Config{Scheme: engine.SchemeLocal})
	// Find a link carried by at least one primary so a local patch has a
	// row to replace.
	for ed := 0; ed < g.Size(); ed++ {
		id := graph.EdgeID(ed)
		if len(e.AffectedPairs(id)) == 0 {
			continue
		}
		before := e.Stats().DetourHops.Count
		apply(e, false, id)
		if e.Stats().DetourHops.Count == before {
			// Nothing replaced (every LSP through the link was
			// unrestorable); the repair must still clear the epoch.
			apply(e, true, id)
			ilmAsProvisioned(t, s, e.Snapshot())
			continue
		}
		apply(e, true, id)
		ilmAsProvisioned(t, s, e.Snapshot())
		return
	}
	t.Skip("no patchable link found")
}

func TestRepeatedFailRepairIsIdempotent(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 11)
	s, e := serve(t, g, engine.Config{})
	pristine := e.Snapshot()
	for i := 0; i < 5; i++ {
		apply(e, false, 1)
		apply(e, true, 1)
	}
	assertPristine(t, s, pristine, e.Snapshot())
}

func TestFailRouterRestoresAround(t *testing.T) {
	// 5-wheel: hub 0 connected to a 4-cycle 1-2-3-4. Failing the hub
	// leaves the cycle; every rim pair must restore around the rim.
	g := graph.New(5)
	for i := 1; i <= 4; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 1, 1)
	_, e := serve(t, g, engine.Config{})
	links := incident(g, 0)
	apply(e, false, links...)
	// Rim pairs deliver without crossing the hub.
	for src := 1; src <= 4; src++ {
		for dst := 1; dst <= 4; dst++ {
			if src == dst {
				continue
			}
			if pkt := mustSend(t, e.Snapshot(), graph.NodeID(src), graph.NodeID(dst)); slices.Contains(pkt.Trace, 0) {
				t.Fatalf("%d->%d routed through failed router: %v", src, dst, pkt.Trace)
			}
		}
	}
	// Traffic to the failed router drops.
	if _, err := e.Snapshot().Send(1, 0); err == nil {
		t.Error("delivered to a failed router")
	}
	// Repair restores hub routing.
	apply(e, true, links...)
	if pkt := mustSend(t, e.Snapshot(), 1, 3); pkt.Hops != 2 {
		t.Errorf("post-repair 1->3 hops = %d, want 2 (via hub or rim)", pkt.Hops)
	}
	mustSend(t, e.Snapshot(), 1, 0)
}

func TestFailRouterPCBound(t *testing.T) {
	// The paper: node-failure concatenations are bounded by the failed
	// router's degree (deg+1 paths via the edge-failure theorems, modulo
	// the Figure-4 pathology). Check routes stay short on a mesh.
	g := topology.Complete(6)
	_, e := serve(t, g, engine.Config{})
	apply(e, false, incident(g, 2)...)
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst || src == 2 || dst == 2 {
				continue
			}
			if r := e.Snapshot().Route(graph.NodeID(src), graph.NodeID(dst)); r == nil || len(r.LSPs) > 2 {
				t.Errorf("%d->%d is served %+v on K6 minus a node, want at most 2 LSPs", src, dst, r)
			}
		}
	}
}

func TestFailRouterArticulationPartition(t *testing.T) {
	// Failing an articulation router genuinely partitions: the engine must
	// answer unroutable rather than misroute.
	g := graph.New(5) // bowtie: 0-1-2(cut)-3-4, triangles 0-1-2 and 2-3-4
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 2, 1)
	if cuts := graph.ArticulationPoints(g); len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("setup: cuts = %v", cuts)
	}
	_, e := serve(t, g, engine.Config{})
	apply(e, false, incident(g, 2)...)
	if _, err := e.Snapshot().Send(0, 3); err == nil {
		t.Error("delivered across the cut")
	}
	mustSend(t, e.Snapshot(), 0, 1)
	mustSend(t, e.Snapshot(), 3, 4)
}

// TestChurnSoak: a long random sequence of failures and repairs with
// continuous invariant checks — the kind of sustained abuse a deployed
// restoration system sees.
func TestChurnSoak(t *testing.T) {
	g := topology.Waxman(16, 0.7, 0.4, 99)
	s, e := serve(t, g, engine.Config{})
	pristine := e.Snapshot()
	rng := rand.New(rand.NewSource(1))
	down := make(map[graph.EdgeID]bool)

	steps := 200
	if testing.Short() {
		steps = 50
	}
	for step := 0; step < steps; step++ {
		// Random action: fail a live link, or repair a dead one.
		if len(down) == 0 || (rng.Intn(2) == 0 && len(down) < 3) {
			ed := graph.EdgeID(rng.Intn(g.Size()))
			if down[ed] {
				continue
			}
			down[ed] = true
			apply(e, false, ed)
		} else {
			var es []graph.EdgeID
			for ed := range down {
				es = append(es, ed)
			}
			slices.Sort(es)
			ed := es[rng.Intn(len(es))]
			delete(down, ed)
			apply(e, true, ed)
		}
		snap := e.Snapshot()
		// Invariant 1: the epoch's failed-set matches the ledger.
		if len(snap.Failed()) != len(down) {
			t.Fatalf("step %d: epoch failed %v vs ledger %d", step, snap.Failed(), len(down))
		}
		// Invariant 2: every pair delivers iff reachable, without loops
		// (all pairs periodically, because that is O(pairs * pathlen)).
		if step%20 == 0 {
			deliversIffReachable(t, g, snap, "churn")
			continue
		}
		for probe := 0; probe < 6; probe++ {
			src, dst := graph.NodeID(rng.Intn(g.Order())), graph.NodeID(rng.Intn(g.Order()))
			if src == dst {
				continue
			}
			if _, err := snap.Send(src, dst); (err == nil) != reachable(snap.View(), src, dst) {
				t.Fatalf("step %d: %d->%d: Send %v, reachable %v", step, src, dst, err, err != nil)
			}
		}
	}

	// Repair everything; the engine must return to pristine routing.
	for ed := range down {
		apply(e, true, ed)
	}
	assertPristine(t, s, pristine, e.Snapshot())
	deliversIffReachable(t, g, e.Snapshot(), "post-churn")
}
