package mpls

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rbpc/internal/graph"
)

// line5 builds 0-1-2-3-4 with unit weights.
func line5() *graph.Graph {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

func pathOf(g *graph.Graph, nodes ...graph.NodeID) graph.Path {
	p := graph.Path{Nodes: nodes}
	for i := 0; i < len(nodes)-1; i++ {
		id, ok := g.FindEdge(nodes[i], nodes[i+1])
		if !ok {
			panic("pathOf: no edge")
		}
		p.Edges = append(p.Edges, id)
	}
	return p
}

func TestEstablishAndForward(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if err != nil {
		t.Fatalf("EstablishLSP: %v", err)
	}
	if lsp.Ingress() != 0 || lsp.Egress() != 3 {
		t.Errorf("endpoints %d,%d", lsp.Ingress(), lsp.Egress())
	}
	pkt, err := n.SendOnLSPs(3, []*LSP{lsp})
	if err != nil {
		t.Fatalf("SendOnLSPs: %v", err)
	}
	if pkt.At != 3 || len(pkt.Stack) != 0 {
		t.Errorf("packet ended at %d with %d labels", pkt.At, len(pkt.Stack))
	}
	if pkt.Hops != 3 {
		t.Errorf("hops = %d, want 3", pkt.Hops)
	}
	want := []graph.NodeID{0, 1, 2, 3}
	if len(pkt.Trace) != len(want) {
		t.Fatalf("trace %v", pkt.Trace)
	}
	for i := range want {
		if pkt.Trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", pkt.Trace, want)
		}
	}
}

func TestILMFootprint(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	if _, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Rows: self at 0, swap at 1, swap at 2, pop at 3.
	for r, want := range map[graph.NodeID]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 0} {
		if got := n.Router(r).ILMSize(); got != want {
			t.Errorf("ILM size at %d = %d, want %d", r, got, want)
		}
	}
	total, max := n.TotalILM()
	if total != 4 || max != 1 {
		t.Errorf("TotalILM = %d/%d", total, max)
	}
}

func TestConcatenationTwoLSPs(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	p1, err := n.EstablishLSP(pathOf(g, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.EstablishLSP(pathOf(g, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := n.SendOnLSPs(4, []*LSP{p1, p2})
	if err != nil {
		t.Fatalf("concatenated forward: %v", err)
	}
	if pkt.At != 4 || pkt.Hops != 4 {
		t.Errorf("ended at %d after %d hops", pkt.At, pkt.Hops)
	}
}

func TestConcatenationThreeLSPs(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	var lsps []*LSP
	for _, seg := range [][]graph.NodeID{{0, 1}, {1, 2, 3}, {3, 4}} {
		l, err := n.EstablishLSP(pathOf(g, seg...))
		if err != nil {
			t.Fatal(err)
		}
		lsps = append(lsps, l)
	}
	pkt, err := n.SendOnLSPs(4, lsps)
	if err != nil {
		t.Fatalf("3-way concatenation: %v", err)
	}
	if pkt.At != 4 {
		t.Errorf("ended at %d", pkt.At)
	}
}

func TestConcatStackErrors(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	p1, _ := n.EstablishLSP(pathOf(g, 0, 1))
	p2, _ := n.EstablishLSP(pathOf(g, 2, 3))
	if _, _, err := ConcatStack(nil); err == nil {
		t.Error("empty concat accepted")
	}
	if _, _, err := ConcatStack([]*LSP{p1, p2}); err == nil {
		t.Error("non-chaining concat accepted")
	}
	php, err := n.EstablishLSPPHP(pathOf(g, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	p3, _ := n.EstablishLSP(pathOf(g, 2, 3))
	if _, _, err := ConcatStack([]*LSP{php, p3}); err == nil {
		t.Error("PHP LSP accepted as non-final concat component")
	}
}

func TestPHP(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSPPHP(pathOf(g, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Egress must hold no row.
	if n.Router(2).ILMSize() != 0 {
		t.Errorf("egress ILM size = %d under PHP, want 0", n.Router(2).ILMSize())
	}
	pkt, err := n.SendOnLSPs(2, []*LSP{lsp})
	if err != nil {
		t.Fatalf("PHP forward: %v", err)
	}
	if pkt.At != 2 {
		t.Errorf("ended at %d", pkt.At)
	}
	if _, err := n.EstablishLSPPHP(pathOf(g, 0, 1)); err == nil {
		t.Error("1-hop PHP accepted")
	}
}

func TestEstablishErrors(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	if _, err := n.EstablishLSP(graph.Trivial(0)); err == nil {
		t.Error("trivial path accepted")
	}
	bad := graph.Path{Nodes: []graph.NodeID{0, 2}, Edges: []graph.EdgeID{0}}
	if _, err := n.EstablishLSP(bad); err == nil {
		t.Error("invalid path accepted")
	}
	for _, id := range []graph.EdgeID{7, -1} { // line5 has links 0..3
		outside := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, id}}
		if _, err := n.EstablishLSP(outside); !errors.Is(err, errInvalidPath) {
			t.Errorf("path over link %d, which the graph does not have: %v, want errInvalidPath", id, err)
		}
	}
	if total, _ := n.TotalILM(); n.NumLSPs() != 0 || total != 0 {
		t.Errorf("refused paths left %d LSPs and %d ILM rows", n.NumLSPs(), total)
	}
	n.FailEdge(1)
	if _, err := n.EstablishLSP(pathOf(g, 0, 1, 2)); err == nil {
		t.Error("path over failed link accepted")
	}

	// A batch whose k-th path is refused establishes exactly the k paths
	// before it and returns that path's error, in as many chunks as it
	// runs: every path is validated before any is installed, so a later
	// chunk's paths are not installed either. The 1200 paths run as two
	// chunks of 600 at GOMAXPROCS 2 and four of 300 at 4, so a refusal at
	// 0 or 100 leaves the first chunk alone, cut, and one at 700 leaves
	// several.
	for _, k := range []int{0, 100, 700} {
		batch := lineBatch(g, 1200)
		batch[k] = bad
		ref := NewNetwork(g)
		refLSPs := make([]*LSP, 0, k)
		var refErr error
		for _, p := range batch {
			lsp, err := ref.EstablishLSP(p)
			if err != nil {
				refErr = err
				break
			}
			refLSPs = append(refLSPs, lsp)
		}
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("batch/k=%d/procs=%d", k, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := NewNetwork(g)
				lsps, err := got.EstablishLSPs(batch)
				if len(lsps) != k || err == nil || err.Error() != refErr.Error() {
					t.Fatalf("the batch established %d LSPs and returned %v, want %d and %v", len(lsps), err, k, refErr)
				}
				sameNetwork(t, got, ref, lsps, refLSPs)
			})
		}
	}
}

// lineBatch returns m paths of line5, every path of one to four hops
// either way in turn.
func lineBatch(g *graph.Graph, m int) []graph.Path {
	var all []graph.Path
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			step := 1
			if v < u {
				step = -1
			}
			nodes := []graph.NodeID{graph.NodeID(u)}
			for w := u; w != v; {
				w += step
				nodes = append(nodes, graph.NodeID(w))
			}
			if u != v {
				all = append(all, pathOf(g, nodes...))
			}
		}
	}
	batch := make([]graph.Path, m)
	for i := range batch {
		batch[i] = all[i%len(all)]
	}
	return batch
}

// sameNetwork fails unless got, whose batch established gotLSPs, holds
// what want, which established wantLSPs, holds: the LSPs with their IDs,
// paths and labels, the registry, every router's ILM and FEC tables, label
// allocator and free labels, and the counters.
func sameNetwork(t *testing.T, got, want *Network, gotLSPs, wantLSPs []*LSP) {
	t.Helper()
	if !reflect.DeepEqual(gotLSPs, wantLSPs) || !reflect.DeepEqual(got.lsps, want.lsps) {
		t.Fatalf("the LSPs differ from the reference's")
	}
	if got.nextLSP != want.nextLSP || got.numLSPs != want.numLSPs || got.Stats() != want.Stats() {
		t.Fatalf("next LSP %d, %d LSPs, counters %+v; the reference's %d, %d, %+v",
			got.nextLSP, got.numLSPs, got.Stats(), want.nextLSP, want.numLSPs, want.Stats())
	}
	for v := range want.routers {
		if g, w := got.routers[v], want.routers[v]; !reflect.DeepEqual(*g, *w) {
			t.Fatalf("router %d is %+v, the reference's %+v", v, *g, *w)
		}
	}
}

func TestTeardownFreesLabels(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if n.NumLSPs() != 1 {
		t.Fatal("NumLSPs != 1")
	}
	if err := n.TeardownLSP(lsp.ID); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	if n.NumLSPs() != 0 {
		t.Error("LSP still present")
	}
	total, _ := n.TotalILM()
	if total != 0 {
		t.Errorf("ILM rows remain after teardown: %d", total)
	}
	if err := n.TeardownLSP(lsp.ID); err == nil {
		t.Error("double teardown accepted")
	}
	// Labels are recycled.
	lsp2, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if lsp2.FirstHopLabel() != lsp.FirstHopLabel() {
		t.Errorf("label not recycled: %d vs %d", lsp2.FirstHopLabel(), lsp.FirstHopLabel())
	}

	// So they are by a batch large enough for several chunks: one that
	// takes labels at a router holding freed labels runs as one chunk and
	// reuses them, as EstablishLSP on each of its paths would.
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("batch/procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, ref := NewNetwork(g), NewNetwork(g)
			batch := lineBatch(g, 1200)
			gotLSPs, err := got.EstablishLSPs(batch)
			if err != nil {
				t.Fatal(err)
			}
			var refLSPs []*LSP
			for _, p := range batch {
				lsp, err := ref.EstablishLSP(p)
				if err != nil {
					t.Fatal(err)
				}
				refLSPs = append(refLSPs, lsp)
			}
			for _, id := range []LSPID{3, 40, 41, 977} {
				if err := got.TeardownLSP(id); err != nil {
					t.Fatal(err)
				}
				if err := ref.TeardownLSP(id); err != nil {
					t.Fatal(err)
				}
			}
			more, err := got.EstablishLSPs(batch)
			if err != nil {
				t.Fatal(err)
			}
			gotLSPs = append(gotLSPs, more...)
			for _, p := range batch {
				lsp, err := ref.EstablishLSP(p)
				if err != nil {
					t.Fatal(err)
				}
				refLSPs = append(refLSPs, lsp)
			}
			sameNetwork(t, got, ref, gotLSPs, refLSPs)
		})
	}
}

func TestLinkFailureDropsPacket(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	n.FailEdge(g.Edges()[1].ID) // link 1-2
	_, err := n.SendOnLSPs(3, []*LSP{lsp})
	if !errors.Is(err, ErrLinkDown) {
		t.Errorf("err = %v, want ErrLinkDown", err)
	}
	n.RepairEdge(g.Edges()[1].ID)
	if _, err := n.SendOnLSPs(3, []*LSP{lsp}); err != nil {
		t.Errorf("after repair: %v", err)
	}
	st := n.Stats()
	if st.PacketsDropped != 1 || st.PacketsForwarded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSendIPUsesFEC(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	n.SetFEC(0, 3, FECEntry{Stack: []Label{lsp.FirstHopLabel()}, OutEdge: lsp.FirstEdge()})
	pkt, err := n.SendIP(0, 3)
	if err != nil {
		t.Fatalf("SendIP: %v", err)
	}
	if pkt.At != 3 {
		t.Errorf("delivered at %d", pkt.At)
	}
	if _, err := n.SendIP(0, 4); !errors.Is(err, ErrNoRoute) {
		t.Errorf("missing FEC: err = %v", err)
	}
	if n.Router(0).FECSize() != 1 {
		t.Error("FECSize")
	}
	if _, ok := n.Router(0).FECEntryFor(3); !ok {
		t.Error("FECEntryFor")
	}
}

// TestSendPushesGivenStack: Send with a FEC row's LSPs is SendIP with the
// row's stack — same walk, same delivery — without the row being installed;
// it drops on a dead link, reports ErrNoRoute for an LSP no router holds a
// label of (a record), and refuses LSPs that do not chain.
func TestSendPushesGivenStack(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	a, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	b, _ := n.EstablishLSP(pathOf(g, 2, 3, 4))
	lsps := []*LSP{a, b}
	stack, err := SelfStack(lsps)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFEC(0, 4, FECEntry{Stack: stack, OutEdge: LocalProcess})
	want, err := n.SendIP(0, 4)
	if err != nil {
		t.Fatalf("SendIP: %v", err)
	}
	got, err := n.Send(4, lsps, nil, nil)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got.At != 4 || got.Hops != want.Hops || !slices.Equal(got.Trace, want.Trace) {
		t.Errorf("Send walked %v (%d hops, at %d), SendIP %v (%d hops)", got.Trace, got.Hops, got.At, want.Trace, want.Hops)
	}
	if fe, _ := n.Router(0).FECEntryFor(4); !slices.Equal(fe.Stack, stack) {
		t.Errorf("SendIP consumed the FEC row's stack: %v", fe.Stack)
	}
	if fec := n.Stats().FECUpdates; fec != 1 {
		t.Errorf("FECUpdates = %d after one SetFEC", fec)
	}

	n.FailEdge(g.Edges()[2].ID) // link 2-3
	if pkt, err := n.Send(4, lsps, nil, nil); !errors.Is(err, ErrLinkDown) || pkt.At != 2 {
		t.Errorf("dead link: pkt at %d, err = %v, want ErrLinkDown at 2", pkt.At, err)
	}
	if _, err := n.Send(2, Records([]graph.Path{a.Path}), nil, nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unknown label: err = %v, want ErrNoRoute", err)
	}
	if _, err := n.Send(4, []*LSP{b, a}, nil, nil); err == nil {
		t.Error("Send pushed LSPs that do not chain")
	}
}

func TestSendIPConcatenatedStack(t *testing.T) {
	// Source-router RBPC in miniature: FEC pushes two labels so the packet
	// rides LSP A then LSP B without any ILM change.
	g := line5()
	n := NewNetwork(g)
	a, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	b, _ := n.EstablishLSP(pathOf(g, 2, 3, 4))
	stack, first, err := ConcatStack([]*LSP{a, b})
	if err != nil {
		t.Fatal(err)
	}
	n.SetFEC(0, 4, FECEntry{Stack: stack, OutEdge: first})
	pkt, err := n.SendIP(0, 4)
	if err != nil {
		t.Fatalf("SendIP: %v", err)
	}
	if pkt.At != 4 || pkt.Hops != 4 {
		t.Errorf("at %d after %d hops", pkt.At, pkt.Hops)
	}
}

func TestReplaceILM(t *testing.T) {
	// Local end-route RBPC in miniature on a square: LSP 0->1 via edge
	// (0,1); after the edge fails, router 0... the adjacent router is the
	// ingress here, so instead test a transit patch: LSP 0-1-2; fail link
	// 1-2; router 1 replaces its row to send via an alternate LSP 1-3-2...
	// line5 has no alternate, so build a diamond.
	g := graph.New(4)
	g.AddEdge(0, 1, 1) // e0
	g.AddEdge(1, 2, 1) // e1
	g.AddEdge(1, 3, 1) // e2
	g.AddEdge(3, 2, 1) // e3
	n := NewNetwork(g)
	main, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	alt, _ := n.EstablishLSP(pathOf(g, 1, 3, 2))

	n.FailEdge(1)
	inLabel, ok := main.IncomingLabelAt(1)
	if !ok {
		t.Fatal("no incoming label at router 1")
	}
	prev, err := n.ReplaceILM(1, inLabel, ILMEntry{
		Out:     []Label{alt.FirstHopLabel()},
		OutEdge: alt.FirstEdge(),
	})
	if err != nil {
		t.Fatalf("ReplaceILM: %v", err)
	}
	pkt, err := n.SendOnLSPs(2, []*LSP{main})
	if err != nil {
		t.Fatalf("patched forward: %v", err)
	}
	if pkt.At != 2 {
		t.Errorf("delivered at %d", pkt.At)
	}
	wantTrace := []graph.NodeID{0, 1, 3, 2}
	for i, w := range wantTrace {
		if pkt.Trace[i] != w {
			t.Fatalf("trace %v, want %v", pkt.Trace, wantTrace)
		}
	}
	// Undo on recovery.
	n.RepairEdge(1)
	if _, err := n.ReplaceILM(1, inLabel, prev); err != nil {
		t.Fatal(err)
	}
	pkt, err = n.SendOnLSPs(2, []*LSP{main})
	if err != nil || pkt.Hops != 2 {
		t.Errorf("after undo: err=%v hops=%d", err, pkt.Hops)
	}
	if _, err := n.ReplaceILM(1, 9999, ILMEntry{}); err == nil {
		t.Error("ReplaceILM of unknown label accepted")
	}
}

func TestForwardingLoopDetected(t *testing.T) {
	// Misconfigure a 2-router ping-pong and check TTL catches it.
	g := graph.New(2)
	e := g.AddEdge(0, 1, 1)
	n := NewNetwork(g)
	l0 := n.Router(0).allocLabel()
	l1 := n.Router(1).allocLabel()
	n.Router(0).setSideILM(l0, ILMEntry{Out: []Label{l1}, OutEdge: e})
	n.Router(1).setSideILM(l1, ILMEntry{Out: []Label{l0}, OutEdge: e})
	pkt := &Packet{Src: 0, Dst: 1, Stack: []Label{l0}, At: 0, TTL: DefaultTTL, Trace: []graph.NodeID{0}}
	err := n.Forward(pkt, nil, nil)
	if !errors.Is(err, ErrTTLExpired) {
		t.Errorf("err = %v, want ErrTTLExpired", err)
	}
}

func TestLocalLabelLoopDetected(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	n := NewNetwork(g)
	l := n.Router(0).allocLabel()
	// Row that replaces the label with itself locally, forever.
	n.Router(0).setSideILM(l, ILMEntry{Out: []Label{l}, OutEdge: LocalProcess})
	pkt := &Packet{Src: 0, Dst: 0, Stack: []Label{l}, At: 0, TTL: DefaultTTL, Trace: []graph.NodeID{0}}
	if err := n.Forward(pkt, nil, nil); !errors.Is(err, ErrLabelLoop) {
		t.Errorf("err = %v, want ErrLabelLoop", err)
	}
}

func TestMisdeliveryDetected(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	// Claim destination 4 but the LSP ends at 2.
	_, err := n.SendOnLSPs(4, []*LSP{lsp})
	if !errors.Is(err, ErrNotDelivered) {
		t.Errorf("err = %v, want ErrNotDelivered", err)
	}
}

func TestNoRouteOnUnknownLabel(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	pkt := &Packet{Src: 0, Dst: 1, Stack: []Label{999}, At: 0, TTL: DefaultTTL, Trace: []graph.NodeID{0}}
	if err := n.Forward(pkt, nil, nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestSignalingAccounting(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3)) // 3 hops: 4 msgs
	n.TeardownLSP(lsp.ID)                           // 3 msgs
	st := n.Stats()
	if st.SignalingMsgs != 7 {
		t.Errorf("SignalingMsgs = %d, want 7", st.SignalingMsgs)
	}
	if st.LSPsEstablished != 1 || st.LSPsTornDown != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIncomingLabelAt(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if _, ok := lsp.IncomingLabelAt(0); ok {
		t.Error("ingress has no incoming label")
	}
	for _, v := range []graph.NodeID{1, 2, 3} {
		l, ok := lsp.IncomingLabelAt(v)
		if !ok {
			t.Fatalf("no incoming label at %d", v)
		}
		if _, ok := n.Router(v).ILMEntryFor(l); !ok {
			t.Errorf("router %d has no row for its incoming label", v)
		}
	}
}
