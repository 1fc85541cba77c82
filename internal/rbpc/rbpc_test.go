package rbpc

import (
	"math/rand"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/topology"
)

// newSquareSystem builds a System over C4 with full provisioning.
func newSquareSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(topology.Ring(4), DefaultConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func mustDeliver(t *testing.T, s *System, src, dst graph.NodeID) *mpls.Packet {
	t.Helper()
	pkt, err := s.Net().SendIP(src, dst)
	if err != nil {
		t.Fatalf("SendIP(%d,%d): %v (trace %v)", src, dst, err, pkt)
	}
	if pkt.At != dst {
		t.Fatalf("packet for %d delivered at %d", dst, pkt.At)
	}
	return pkt
}

func TestProvisioningAndPrimaries(t *testing.T) {
	s := newSquareSystem(t)
	// Every ordered pair must be routable out of the box.
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			pkt := mustDeliver(t, s, graph.NodeID(src), graph.NodeID(dst))
			if pkt.Hops > 2 {
				t.Errorf("%d->%d took %d hops on C4", src, dst, pkt.Hops)
			}
		}
	}
	if s.OnDemandLSPs() != 0 {
		t.Errorf("on-demand LSPs at provisioning time: %d", s.OnDemandLSPs())
	}
}

func TestSourceRBPCSingleFailure(t *testing.T) {
	s := newSquareSystem(t)
	e, _ := s.Graph().FindEdge(0, 1)

	// Physical failure, before any reaction: traffic crossing e drops.
	s.FailDataPlane(e)
	if _, err := s.Net().SendIP(0, 1); err == nil {
		t.Fatal("packet crossed a dead link")
	}

	// Source-router reaction: FEC rewrites only.
	ilmBefore, _ := s.Net().TotalILM()
	sigBefore := s.Net().Stats().SignalingMsgs
	s.NoteFailure(e)
	updated, unroutable := s.UpdateAllSources(e)
	if updated == 0 || unroutable != 0 {
		t.Fatalf("updated=%d unroutable=%d", updated, unroutable)
	}
	ilmAfter, _ := s.Net().TotalILM()
	if ilmAfter != ilmBefore {
		t.Errorf("source RBPC changed ILM tables: %d -> %d", ilmBefore, ilmAfter)
	}
	if got := s.Net().Stats().SignalingMsgs; got != sigBefore {
		t.Errorf("source RBPC signaled: %d -> %d messages", sigBefore, got)
	}

	// Traffic flows again on the 3-hop detour.
	pkt := mustDeliver(t, s, 0, 1)
	if pkt.Hops != 3 {
		t.Errorf("restored route = %d hops, want 3", pkt.Hops)
	}
	// With one base path per pair, C4 is the paper's remark: some single
	// failure forces 3 components (two trivial paths and an edge). The
	// concatenation must never exceed that.
	if r := s.RouteOf(0, 1); len(r) > 3 {
		t.Errorf("concatenation of %d LSPs, want <= 3 on C4", len(r))
	}
}

func TestSourceRBPCRecovery(t *testing.T) {
	s := newSquareSystem(t)
	e, _ := s.Graph().FindEdge(0, 1)
	s.FailLink(e)
	if pkt := mustDeliver(t, s, 0, 1); pkt.Hops != 3 {
		t.Fatalf("detour hops = %d", pkt.Hops)
	}
	s.RepairLink(e)
	if pkt := mustDeliver(t, s, 0, 1); pkt.Hops != 1 {
		t.Errorf("after recovery hops = %d, want 1", pkt.Hops)
	}
	if len(s.KnownFailed()) != 0 {
		t.Errorf("failures still known after repair: %v", s.KnownFailed())
	}
}

func TestSourceRBPCDoubleFailure(t *testing.T) {
	// K5 is 4-edge-connected: after two link failures every pair stays
	// routable, with zero signaling (closure provisioning).
	s, err := NewSystem(topology.Complete(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := s.Graph().FindEdge(0, 1)
	e2, _ := s.Graph().FindEdge(2, 3)
	sigBefore := s.Net().Stats().SignalingMsgs
	s.FailLink(e1)
	s.FailLink(e2)
	for src := 0; src < 5; src++ {
		for dst := 0; dst < 5; dst++ {
			if src != dst {
				mustDeliver(t, s, graph.NodeID(src), graph.NodeID(dst))
			}
		}
	}
	if got := s.Net().Stats().SignalingMsgs; got != sigBefore {
		t.Errorf("double failure signaled %d messages", got-sigBefore)
	}
	if s.OnDemandLSPs() != 0 {
		t.Errorf("on-demand LSPs = %d, want 0 with full closure", s.OnDemandLSPs())
	}
}

func TestDisconnectionHandled(t *testing.T) {
	// A line: failing the middle link separates the halves.
	s, err := NewSystem(topology.Line(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := s.Graph().FindEdge(1, 2)
	s.FailLink(e)
	if _, err := s.Net().SendIP(0, 3); err == nil {
		t.Error("packet delivered across a partition")
	}
	// Unaffected pairs still work.
	mustDeliver(t, s, 0, 1)
	mustDeliver(t, s, 2, 3)
	// Repair restores everything.
	s.RepairLink(e)
	mustDeliver(t, s, 0, 3)
}

func TestOnDemandWithoutClosure(t *testing.T) {
	// Without subpath closure or edge LSPs, restoration may need to
	// signal components on demand — the System must still deliver.
	s, err := NewSystem(topology.Ring(6), Config{SubpathClosure: false, EdgeLSPs: false})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := s.Graph().FindEdge(0, 1)
	s.FailLink(e)
	mustDeliver(t, s, 0, 1)
	// Anything signaled on demand joins the registry, never the base set.
	baseLSPsInStep(t, s, "after on-demand signaling")
}

func TestLocalEndRoute(t *testing.T) {
	// Diamond + tail: LSP 0-1-2; link 1-2 fails; router 1 patches.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(3, 2, 1)
	s, err := NewSystem(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.FailDataPlane(e12)
	patched, unrestorable, err := s.LocalPatch(e12, EndRoute)
	if err != nil {
		t.Fatalf("LocalPatch: %v", err)
	}
	if patched == 0 || unrestorable != 0 {
		t.Fatalf("patched=%d unrestorable=%d", patched, unrestorable)
	}
	// Source 0 has NOT updated its FEC; the patch alone must carry the
	// packet: 0 -> 1 -> 3 -> 2.
	pkt := mustDeliver(t, s, 0, 2)
	want := []graph.NodeID{0, 1, 3, 2}
	if len(pkt.Trace) != len(want) {
		t.Fatalf("trace %v, want %v", pkt.Trace, want)
	}
	for i := range want {
		if pkt.Trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", pkt.Trace, want)
		}
	}
	// Undo and repair: original 2-hop route again.
	s.Net().RepairEdge(e12)
	s.UndoLocalPatches(e12)
	pkt = mustDeliver(t, s, 0, 2)
	if pkt.Hops != 2 {
		t.Errorf("after undo: %d hops", pkt.Hops)
	}
}

func TestLocalEdgeBypass(t *testing.T) {
	// Square + pendant: LSP 0-1-2 over the ring; bypass 1-0-3-2? Use C4:
	// LSP 0-1 fails at its only link; R1=0 is the ingress; bypass 0-3-2-1
	// resumes at 1 (the egress pop).
	s := newSquareSystem(t)
	e, _ := s.Graph().FindEdge(0, 1)
	s.FailDataPlane(e)
	patched, unrestorable, err := s.LocalPatch(e, EdgeBypass)
	if err != nil {
		t.Fatalf("LocalPatch: %v", err)
	}
	if patched == 0 || unrestorable != 0 {
		t.Fatalf("patched=%d unrestorable=%d", patched, unrestorable)
	}
	pkt := mustDeliver(t, s, 0, 1)
	if pkt.Hops != 3 {
		t.Errorf("bypassed route = %d hops, want 3", pkt.Hops)
	}
	// Longer LSPs resume correctly too: 3 -> 1 originally 3-0-1.
	mustDeliver(t, s, 3, 1)
}

func TestLocalPatchDuplicate(t *testing.T) {
	s := newSquareSystem(t)
	e, _ := s.Graph().FindEdge(0, 1)
	s.FailDataPlane(e)
	if _, _, err := s.LocalPatch(e, EdgeBypass); err != nil {
		t.Fatal(err)
	}
	if !s.LocallyPatched(e) {
		t.Error("LocallyPatched = false")
	}
	if _, _, err := s.LocalPatch(e, EdgeBypass); err == nil {
		t.Error("double patch accepted")
	}
}

func TestLocalPatchUnrestorable(t *testing.T) {
	// Line: failing the middle link cannot be bypassed.
	s, err := NewSystem(topology.Line(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := s.Graph().FindEdge(1, 2)
	s.FailDataPlane(e)
	patched, unrestorable, err := s.LocalPatch(e, EdgeBypass)
	if err != nil {
		t.Fatal(err)
	}
	if patched != 0 || unrestorable == 0 {
		t.Errorf("patched=%d unrestorable=%d on a bridge", patched, unrestorable)
	}
}

func TestLocalSchemeString(t *testing.T) {
	if EndRoute.String() != "end-route" || EdgeBypass.String() != "edge-bypass" || LocalScheme(9).String() == "" {
		t.Error("LocalScheme.String wrong")
	}
}

func TestPairsThrough(t *testing.T) {
	s := newSquareSystem(t)
	e, _ := s.Graph().FindEdge(0, 1)
	prs := s.PairsThrough(e)
	if len(prs) == 0 {
		t.Fatal("no pairs through a used link")
	}
	// Must at least include (0,1) and (1,0).
	has := func(p Pair) bool {
		for _, q := range prs {
			if q == p {
				return true
			}
		}
		return false
	}
	if !has(Pair{0, 1}) || !has(Pair{1, 0}) {
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
		s, err := NewSystem(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 2; f++ {
			e := graph.EdgeID(rng.Intn(g.Size()))
			if _, known := s.failed[e]; known {
				continue
			}
			s.FailLink(e)
		}
		fv := graph.FailEdges(g, s.KnownFailed()...)
		for src := 0; src < g.Order(); src++ {
			for dst := 0; dst < g.Order(); dst++ {
				if src == dst {
					continue
				}
				_, err := s.Net().SendIP(graph.NodeID(src), graph.NodeID(dst))
				reachable := false
				for _, v := range graph.ReachableFrom(fv, graph.NodeID(src)) {
					if v == graph.NodeID(dst) {
						reachable = true
					}
				}
				if reachable && err != nil {
					t.Fatalf("trial %d: %d->%d undeliverable despite connectivity: %v", trial, src, dst, err)
				}
				if !reachable && err == nil {
					t.Fatalf("trial %d: %d->%d delivered across a partition", trial, src, dst)
				}
			}
		}
	}
}

// TestNoLoopsUnderLocalPatching: local patches must never loop a packet
// (TTL would catch it); single failures on random graphs.
func TestNoLoopsUnderLocalPatching(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := topology.Waxman(12, 0.8, 0.4, int64(100+trial))
		s, err := NewSystem(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := graph.EdgeID(trial % g.Size())
		s.FailDataPlane(e)
		if _, _, err := s.LocalPatch(e, EdgeBypass); err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.Order(); src++ {
			for dst := 0; dst < g.Order(); dst++ {
				if src == dst {
					continue
				}
				pkt, err := s.Net().SendIP(graph.NodeID(src), graph.NodeID(dst))
				if err != nil {
					// Allowed only if truly cut off.
					fv := graph.FailEdges(g, e)
					for _, v := range graph.ReachableFrom(fv, graph.NodeID(src)) {
						if v == graph.NodeID(dst) {
							t.Fatalf("trial %d: %d->%d dropped (%v) though reachable", trial, src, dst, err)
						}
					}
					continue
				}
				if pkt.Hops >= mpls.DefaultTTL {
					t.Fatalf("trial %d: packet consumed its TTL", trial)
				}
			}
		}
	}
}
