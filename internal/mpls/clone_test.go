package mpls

import (
	"reflect"
	"testing"

	"rbpc/internal/graph"
)

// lineNet builds a line graph of n routers with one LSP spanning each
// adjacent pair and a full-span LSP, plus a FEC row at every router for
// the far end.
func lineNet(tb testing.TB, n int) (*graph.Graph, *Network) {
	tb.Helper()
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	net := NewNetwork(g)
	var nodes []graph.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, graph.NodeID(i))
	}
	full, err := net.EstablishLSP(pathOf(g, nodes...))
	if err != nil {
		tb.Fatalf("EstablishLSP: %v", err)
	}
	for i := 0; i < n-1; i++ {
		if _, err := net.EstablishLSP(pathOf(g, nodes[i], nodes[i+1])); err != nil {
			tb.Fatalf("EstablishLSP: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		net.SetFEC(graph.NodeID(i), graph.NodeID(n-1), FECEntry{
			Stack:   []Label{full.SelfLabel()},
			OutEdge: LocalProcess,
		})
	}
	return g, net
}

// ilmRows collects a router's installed ILM rows by label.
func ilmRows(r *Router) map[Label]ILMEntry {
	rows := make(map[Label]ILMEntry, r.ILMSize())
	for l := range r.ilm {
		if e, ok := r.ILMEntryFor(Label(l)); ok {
			rows[Label(l)] = e
		}
	}
	return rows
}

func TestCloneIsolation(t *testing.T) {
	g, net := lineNet(t, 6)
	c := net.Clone()

	// Writes to the clone are invisible to the original, and vice versa.
	c.SetFEC(0, 5, FECEntry{Stack: []Label{99}, OutEdge: LocalProcess})
	if e, _ := net.Router(0).FECEntryFor(5); len(e.Stack) == 1 && e.Stack[0] == 99 {
		t.Fatal("clone FEC write leaked into original")
	}
	net.ClearFEC(1, 5)
	if _, ok := c.Router(1).FECEntryFor(5); !ok {
		t.Fatal("original ClearFEC leaked into clone")
	}

	// ILM writes are isolated too. The replaced entry must differ from
	// its replacement (an egress entry already pops to local processing),
	// or "unchanged in the clone" and "leaked" would look the same.
	lbl, found := Label(0), false
	for l, e := range ilmRows(net.routers[2]) {
		if e.OutEdge != LocalProcess || len(e.Out) != 0 {
			lbl, found = l, true
			break
		}
	}
	if !found {
		t.Fatal("router 2 has no transit ILM entry to replace")
	}
	if _, err := net.ReplaceILM(2, lbl, ILMEntry{Out: nil, OutEdge: LocalProcess}); err != nil {
		t.Fatalf("ReplaceILM: %v", err)
	}
	orig, _ := net.Router(2).ILMEntryFor(lbl)
	cl, _ := c.Router(2).ILMEntryFor(lbl)
	if orig.OutEdge == cl.OutEdge && len(orig.Out) == len(cl.Out) {
		t.Fatal("original ILM replacement leaked into clone")
	}

	// LSP establishment on the clone does not grow the original registry.
	before := net.NumLSPs()
	if _, err := c.EstablishLSP(pathOf(g, 2, 3, 4)); err != nil {
		t.Fatalf("EstablishLSP on clone: %v", err)
	}
	if net.NumLSPs() != before {
		t.Fatalf("clone establishment grew original registry: %d -> %d", before, net.NumLSPs())
	}

	// Link state is independent.
	c.FailEdge(0)
	if !net.EdgeUp(0) {
		t.Fatal("clone FailEdge leaked into original")
	}
}

func TestCloneForwardingMatchesOriginal(t *testing.T) {
	_, net := lineNet(t, 6)
	c := net.Clone()
	p1, err1 := net.SendIP(0, 5)
	p2, err2 := c.SendIP(0, 5)
	if err1 != nil || err2 != nil {
		t.Fatalf("forward: %v / %v", err1, err2)
	}
	if p1.At != 5 || p2.At != 5 || p1.Hops != p2.Hops {
		t.Fatalf("forwarding diverged: %v vs %v", p1, p2)
	}
}

func TestCloneLabelSpacesIndependent(t *testing.T) {
	g, net := lineNet(t, 6)
	c := net.Clone()
	// Establish distinct LSPs on both lineages; each network's tables must
	// stay internally consistent (forwarding still delivers on both).
	if _, err := net.EstablishLSP(pathOf(g, 1, 2, 3)); err != nil {
		t.Fatalf("EstablishLSP original: %v", err)
	}
	if _, err := c.EstablishLSP(pathOf(g, 3, 4, 5)); err != nil {
		t.Fatalf("EstablishLSP clone: %v", err)
	}
	for _, n := range []*Network{net, c} {
		pkt, err := n.SendIP(0, 5)
		if err != nil || pkt.At != 5 {
			t.Fatalf("post-establish forwarding broken: %v (%v)", pkt, err)
		}
	}
}

// tableImage deep-copies every router's ILM and FEC table plus the link
// state, so a later comparison detects any in-place mutation of the maps a
// clone shares with its parent.
type tableImage struct {
	ilm    []map[Label]ILMEntry
	fec    []map[graph.NodeID]FECEntry
	edgeUp []bool
	lsps   int
}

func imageOf(n *Network) tableImage {
	img := tableImage{
		ilm:    make([]map[Label]ILMEntry, len(n.routers)),
		fec:    make([]map[graph.NodeID]FECEntry, len(n.routers)),
		edgeUp: append([]bool(nil), n.edgeUp...),
		lsps:   n.NumLSPs(),
	}
	for i, r := range n.routers {
		img.ilm[i] = make(map[Label]ILMEntry, r.ILMSize())
		for l, e := range ilmRows(r) {
			img.ilm[i][l] = ILMEntry{Out: append([]Label(nil), e.Out...), OutEdge: e.OutEdge, LSP: e.LSP}
		}
		img.fec[i] = make(map[graph.NodeID]FECEntry, r.fecCount)
		for _, d := range r.FECDests() {
			e, _ := r.FECEntryFor(d)
			img.fec[i][d] = FECEntry{Stack: append([]Label(nil), e.Stack...), OutEdge: e.OutEdge}
		}
	}
	return img
}

// TestCloneParentTablesBitIdentical is the aliasing regression test for
// Clone: after aggressive mutation of a clone — FEC
// rewrites and clears at every router, an ILM replacement, LSP
// establishment and teardown, and link failures — the parent's ILM and FEC
// tables, link state, and LSP registry must compare deep-equal to a
// pre-clone image. Any table the two share and the clone mutates in place
// shows up as a diff here.
func TestCloneParentTablesBitIdentical(t *testing.T) {
	g, net := lineNet(t, 8)
	before := imageOf(net)

	c := net.Clone()
	for i := 0; i < 8; i++ {
		c.SetFEC(graph.NodeID(i), 0, FECEntry{Stack: []Label{42}, OutEdge: LocalProcess})
		c.ClearFEC(graph.NodeID(i), 7)
	}
	var lbl Label
	for l := range ilmRows(c.routers[4]) {
		lbl = l
		break
	}
	if _, err := c.ReplaceILM(4, lbl, ILMEntry{Out: []Label{7, 8, 9}, OutEdge: LocalProcess}); err != nil {
		t.Fatalf("ReplaceILM on clone: %v", err)
	}
	lsp, err := c.EstablishLSP(pathOf(g, 1, 2, 3, 4))
	if err != nil {
		t.Fatalf("EstablishLSP on clone: %v", err)
	}
	if err := c.TeardownLSP(lsp.ID); err != nil {
		t.Fatalf("TeardownLSP on clone: %v", err)
	}
	c.FailEdge(2)
	c.FailEdge(5)

	after := imageOf(net)
	if !reflect.DeepEqual(before.ilm, after.ilm) {
		t.Error("parent ILM tables changed after clone mutation")
	}
	if !reflect.DeepEqual(before.fec, after.fec) {
		t.Error("parent FEC tables changed after clone mutation")
	}
	if !reflect.DeepEqual(before.edgeUp, after.edgeUp) {
		t.Error("parent link state changed after clone mutation")
	}
	if before.lsps != after.lsps {
		t.Errorf("parent LSP registry size changed: %d -> %d", before.lsps, after.lsps)
	}
}
