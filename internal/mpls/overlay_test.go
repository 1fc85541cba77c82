package mpls

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
)

// ringNet provisions a six-router ring with an LSP both ways round between
// every ordered pair of routers, and returns the LSPs and every ILM row they
// installed — the rows a patch may name.
func ringNet(t *testing.T) (*graph.Graph, *Network, []*LSP, []ILMPatch) {
	t.Helper()
	const order = 6
	g := graph.New(order)
	for i := 0; i < order; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%order), 1)
	}
	n := NewNetwork(g)
	var lsps []*LSP
	var rows []ILMPatch
	for s := 0; s < order; s++ {
		for hops := 1; hops < order; hops++ {
			for _, step := range []int{1, order - 1} {
				nodes := []graph.NodeID{graph.NodeID(s)}
				for h := 1; h <= hops; h++ {
					nodes = append(nodes, graph.NodeID((s+h*step)%order))
				}
				lsp, err := n.EstablishLSP(pathOf(g, nodes...))
				if err != nil {
					t.Fatal(err)
				}
				lsps = append(lsps, lsp)
				rows = append(rows, ILMPatch{Router: lsp.Ingress(), Label: lsp.SelfLabel()})
				for i := range lsp.Path.Edges {
					l, _ := lsp.HopLabel(i)
					rows = append(rows, ILMPatch{Router: lsp.Path.Nodes[i+1], Label: l})
				}
			}
		}
	}
	return g, n, lsps, rows
}

func sameEntry(a, b ILMEntry) bool {
	return a.OutEdge == b.OutEdge && a.LSP == b.LSP && slices.Equal(a.Out, b.Out)
}

// sameILM reports whether two networks hold identical ILM tables, row for
// row, at every router.
func sameILM(a, b *Network) bool {
	for i, r := range a.routers {
		if !maps.EqualFunc(ilmRows(r), ilmRows(b.routers[i]), sameEntry) {
			return false
		}
	}
	return true
}

// TestOverlayMatchesPatchedClone is the overlay's oracle. Over seeded random
// wanted lists — rows named twice, rows rewritten from one step to the next,
// sets that shrink and empty ones — and random removed links, forwarding every
// provisioned LSP's traffic over the one network under the overlay and the
// failure view equals, in trace, hops and error, forwarding over a fresh
// Clone with ReplaceILM applied per wanted row (the first entry of a row
// wins) and FailEdge per removed link. The network itself is never written.
func TestOverlayMatchesPatchedClone(t *testing.T) {
	g, n, lsps, rows := ringNet(t)
	pristine := n.Clone()
	before := n.Stats()
	rng := rand.New(rand.NewSource(9))
	selfAt := make(map[graph.NodeID][]Label)
	for _, l := range lsps {
		selfAt[l.Ingress()] = append(selfAt[l.Ingress()], l.SelfLabel())
	}
	// A patched row pops, swaps to a label nobody holds, or — what a local
	// scheme installs — continues onto LSPs that start at the router.
	entry := func(r graph.NodeID) ILMEntry {
		e := ILMEntry{OutEdge: LocalProcess}
		switch self := selfAt[r]; rng.Intn(4) {
		case 0:
		case 1:
			e.Out = []Label{Label(9000 + rng.Intn(2))}
		case 2:
			e.Out = []Label{self[rng.Intn(len(self))]}
		default:
			e.Out = []Label{self[rng.Intn(len(self))], self[rng.Intn(len(self))]}
		}
		return e
	}

	var delivered, linkDown, noRoute, rerouted, dups int
	density := 8
	for step := 0; step < 200; step++ {
		if step%20 == 0 {
			density = 2 + rng.Intn(12) // the set grows and shrinks along the run
		}
		var want []ILMPatch
		for _, k := range rows {
			if rng.Intn(density) != 0 {
				continue
			}
			k.Entry = entry(k.Router)
			want = append(want, k)
			if rng.Intn(4) == 0 {
				k.Entry = entry(k.Router)
				want = append(want, k)
				dups++
			}
		}
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		if step%17 == 0 {
			want = nil
		}
		var removed []graph.EdgeID
		for i := rng.Intn(3); i > 0; i-- {
			removed = append(removed, graph.EdgeID(rng.Intn(g.Size())))
		}

		ov, err := NewILMOverlay(n, want)
		if err != nil {
			t.Fatal(err)
		}
		if (ov == nil) != (len(want) == 0) {
			t.Fatalf("step %d: %d wanted rows froze into overlay %v", step, len(want), ov)
		}
		fv := graph.FailEdges(g, removed...)

		ref := n.Clone()
		seen := make(map[[2]int32]bool)
		for _, w := range want {
			if k := [2]int32{int32(w.Router), int32(w.Label)}; !seen[k] {
				seen[k] = true
				if _, err := ref.ReplaceILM(w.Router, w.Label, w.Entry); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ov.Len() != len(seen) {
			t.Fatalf("step %d: the overlay holds %d rows for %d distinct wanted rows", step, ov.Len(), len(seen))
		}
		for _, ed := range removed {
			ref.FailEdge(ed)
		}

		for _, l := range lsps {
			stack := []Label{l.SelfLabel()}
			got, gerr := n.Send(l.Ingress(), l.Egress(), stack, fv, ov)
			exp, werr := ref.Send(l.Ingress(), l.Egress(), stack, nil, nil)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("step %d, LSP %v: overlay %v, patched clone %v", step, l.Path.Nodes, gerr, werr)
			}
			if got.At != exp.At || got.Hops != exp.Hops || !slices.Equal(got.Trace, exp.Trace) {
				t.Fatalf("step %d, LSP %v: overlay walked %v (%d hops), patched clone %v (%d hops)",
					step, l.Path.Nodes, got.Trace, got.Hops, exp.Trace, exp.Hops)
			}
			switch {
			case gerr == nil:
				delivered++
				if !slices.Equal(got.Trace, l.Path.Nodes) {
					rerouted++
				}
			case errors.Is(gerr, ErrLinkDown):
				linkDown++
			case errors.Is(gerr, ErrNoRoute):
				noRoute++
			}
		}
	}
	if delivered == 0 || rerouted == 0 || linkDown == 0 || noRoute == 0 || dups == 0 {
		t.Fatalf("the schedule skipped an arm: %d delivered (%d off their LSP), %d on a dead link, %d without a row, %d rows named twice",
			delivered, rerouted, linkDown, noRoute, dups)
	}
	after := n.Stats()
	if after.ILMReplacements != before.ILMReplacements || !sameILM(n, pristine) {
		t.Fatalf("the network was written: %d ILM replacements (%d before), tables pristine %v",
			after.ILMReplacements, before.ILMReplacements, sameILM(n, pristine))
	}
}

// TestOverlayRows pins the constructor's contract on a hand-built list: the
// first entry of a row named twice wins, entries are copied out of the
// caller's scratch, ILMRow reads the overlay's row and falls back to the
// router's own, a wanted row with no base row is refused, and the empty list
// is the nil overlay, which patches nothing.
func TestOverlayRows(t *testing.T) {
	_, n, _, rows := ringNet(t)
	a, b := rows[1], rows[len(rows)/2]
	base := func(k ILMPatch) ILMEntry {
		e, ok := n.Router(k.Router).ILMEntryFor(k.Label)
		if !ok {
			t.Fatalf("row %d/%d vanished", k.Router, k.Label)
		}
		return e
	}
	row := func(k ILMPatch, out ...Label) ILMPatch {
		k.Entry = ILMEntry{Out: out, OutEdge: LocalProcess}
		return k
	}

	scratch := []Label{70, 71}
	ov, err := NewILMOverlay(n, []ILMPatch{row(b, 90), row(a, scratch...), row(b, 91)})
	if err != nil {
		t.Fatal(err)
	}
	scratch[0] = 99
	if ov.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ov.Len())
	}
	if got, ok := n.ILMRow(a.Router, a.Label, ov); !ok || !slices.Equal(got.Out, []Label{70, 71}) {
		t.Fatalf("row a = %+v, %v: aliases the caller's scratch", got, ok)
	}
	if got, ok := n.ILMRow(b.Router, b.Label, ov); !ok || !slices.Equal(got.Out, []Label{90}) {
		t.Fatalf("row b = %+v, %v: want the first entry", got, ok)
	}
	c := rows[2]
	if got, ok := n.ILMRow(c.Router, c.Label, ov); !ok || !sameEntry(got, base(c)) {
		t.Fatalf("unpatched row = %+v, %v: want the router's own %+v", got, ok, base(c))
	}
	if got, ok := n.ILMRow(a.Router, a.Label, nil); !ok || !sameEntry(got, base(a)) {
		t.Fatalf("under the nil overlay row a = %+v, %v: want the router's own %+v", got, ok, base(a))
	}
	if _, ok := n.ILMRow(a.Router, 9999, ov); ok {
		t.Fatal("a label no router holds has a row")
	}

	if ov, err := NewILMOverlay(n, []ILMPatch{row(a, 70), row(ILMPatch{Router: 1, Label: 9999})}); err == nil {
		t.Fatalf("a wanted row with no base row froze into %v", ov)
	}
	if ov, err := NewILMOverlay(n, nil); ov != nil || err != nil {
		t.Fatalf("the empty list froze into %v, %v", ov, err)
	}
}

// TestForwardReadsLinkStateFromTheView: a packet is dropped with ErrLinkDown
// on a link the view removed although the network's own link state has every
// link up, and crosses a link the network holds down when the view keeps it.
func TestForwardReadsLinkStateFromTheView(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	stack := []Label{lsp.SelfLabel()}
	dead := lsp.Path.Edges[2] // link 2-3
	pkt, err := n.Send(0, 4, stack, graph.FailEdges(g, dead), nil)
	if !errors.Is(err, ErrLinkDown) || pkt.At != 2 {
		t.Fatalf("view without link %d: packet at %d, err = %v, want ErrLinkDown at 2", dead, pkt.At, err)
	}
	if !n.EdgeUp(dead) {
		t.Fatal("forwarding under a view moved the network's own link state")
	}
	if pkt, err := n.Send(0, 4, stack, nil, nil); err != nil || pkt.At != 4 {
		t.Fatalf("the network's own link state: packet %+v, err = %v", pkt, err)
	}
	n.FailEdge(dead)
	if pkt, err := n.Send(0, 4, stack, graph.FailEdges(g), nil); err != nil || pkt.At != 4 {
		t.Fatalf("pristine view over a network holding link %d down: packet %+v, err = %v", dead, pkt, err)
	}
}
