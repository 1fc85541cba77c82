package mpls

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rbpc/internal/graph"
)

// ringNet provisions a six-router ring with an LSP both ways round between
// every ordered pair of routers, and returns the LSPs, indexed too by their
// endpoints (two per ordered pair), and every (LSP, hop) a patch may name.
func ringNet(t *testing.T) (*graph.Graph, *Network, []*LSP, map[[2]graph.NodeID][]*LSP, []ILMPatch) {
	t.Helper()
	const order = 6
	g := graph.New(order)
	for i := 0; i < order; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%order), 1)
	}
	n := NewNetwork(g)
	var lsps []*LSP
	between := make(map[[2]graph.NodeID][]*LSP)
	var hops []ILMPatch
	for s := 0; s < order; s++ {
		for h := 1; h < order; h++ {
			for _, step := range []int{1, order - 1} {
				nodes := []graph.NodeID{graph.NodeID(s)}
				for i := 1; i <= h; i++ {
					nodes = append(nodes, graph.NodeID((s+i*step)%order))
				}
				lsp, err := n.EstablishLSP(pathOf(g, nodes...))
				if err != nil {
					t.Fatal(err)
				}
				lsps = append(lsps, lsp)
				k := [2]graph.NodeID{lsp.Ingress(), lsp.Egress()}
				between[k] = append(between[k], lsp)
				for i := range lsp.Path.Edges {
					hops = append(hops, ILMPatch{Router: lsp.Path.Nodes[i], Crossing: lsp, Hop: i})
				}
			}
		}
	}
	return g, n, lsps, between, hops
}

// patchedRow is the ILM row a patch stands for, its labels formed here from
// the LSP's layout rather than by the overlay: the row under which the
// crossing's traffic is processed at the router, reading — bottom-first —
// the crossing's label on its hop under Resume, then the splice's
// self-labels.
func patchedRow(p ILMPatch) (Label, ILMEntry) {
	label := p.Crossing.SelfLabel()
	if p.Hop > 0 {
		label, _ = p.Crossing.HopLabel(p.Hop - 1)
	}
	e := ILMEntry{OutEdge: LocalProcess}
	if p.Resume {
		resume, _ := p.Crossing.HopLabel(p.Hop)
		e.Out = append(e.Out, resume)
	}
	for i := len(p.Splice) - 1; i >= 0; i-- {
		e.Out = append(e.Out, p.Splice[i].SelfLabel())
	}
	return label, e
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
// wanted lists — end-route and edge-bypass patches over one or two splice
// LSPs, patches named twice, rewritten from one step to the next, sets that
// shrink and empty ones — and random removed links, forwarding every
// provisioned LSP's traffic over the one network under the overlay and the
// failure view equals, in trace, hops and error, forwarding over a fresh
// Clone with ReplaceILM applied per wanted patch (the first patch of a row
// wins), its labels formed by patchedRow, and FailEdge per removed link. The
// network itself is never written.
func TestOverlayMatchesPatchedClone(t *testing.T) {
	g, n, lsps, between, hops := ringNet(t)
	pristine := n.Clone()
	before := n.Stats()
	rng := rand.New(rand.NewSource(9))
	// A patch end-routes or bypasses, over one LSP either way round or two
	// through a third router — which may be one whose own rows are patched,
	// so a packet can loop.
	pick := func(s, d graph.NodeID) *LSP { l := between[[2]graph.NodeID{s, d}]; return l[rng.Intn(len(l))] }
	patch := func(p ILMPatch) ILMPatch {
		p.Resume = rng.Intn(2) == 0
		end := p.Crossing.Egress()
		if p.Resume {
			end = p.Crossing.Path.Nodes[p.Hop+1]
		}
		if m := graph.NodeID(rng.Intn(g.Order())); rng.Intn(2) == 0 && m != p.Router && m != end {
			p.Splice = []*LSP{pick(p.Router, m), pick(m, end)}
		} else {
			p.Splice = []*LSP{pick(p.Router, end)}
		}
		return p
	}

	var delivered, linkDown, looped, rerouted, dups int
	density := 8
	for step := 0; step < 200; step++ {
		if step%20 == 0 {
			density = 2 + rng.Intn(12) // the set grows and shrinks along the run
		}
		var want []ILMPatch
		for _, k := range hops {
			if rng.Intn(density) != 0 {
				continue
			}
			want = append(want, patch(k))
			if rng.Intn(4) == 0 {
				want = append(want, patch(k))
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
			t.Fatalf("step %d: %d wanted patches froze into overlay %v", step, len(want), ov)
		}
		fv := graph.FailEdges(g, removed...)

		ref := n.Clone()
		seen := make(map[[3]int]bool)
		for _, w := range want {
			if k := [3]int{int(w.Router), int(w.Crossing.ID), w.Hop}; !seen[k] {
				seen[k] = true
				label, e := patchedRow(w)
				if _, err := ref.ReplaceILM(w.Router, label, e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ov.Len() != len(seen) {
			t.Fatalf("step %d: the overlay holds %d patches for %d distinct wanted ones", step, ov.Len(), len(seen))
		}
		for _, ed := range removed {
			ref.FailEdge(ed)
		}

		for _, l := range lsps {
			got, gerr := n.Send(l.Egress(), []*LSP{l}, fv, ov)
			exp, werr := ref.Send(l.Egress(), []*LSP{l}, nil, nil)
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
			case errors.Is(gerr, ErrLabelLoop), errors.Is(gerr, ErrTTLExpired):
				looped++
			}
		}
	}
	if delivered == 0 || rerouted == 0 || linkDown == 0 || looped == 0 || dups == 0 {
		t.Fatalf("the schedule skipped an arm: %d delivered (%d off their LSP), %d on a dead link, %d looped, %d patches named twice",
			delivered, rerouted, linkDown, looped, dups)
	}
	after := n.Stats()
	if after.ILMReplacements != before.ILMReplacements || !sameILM(n, pristine) {
		t.Fatalf("the network was written: %d ILM replacements (%d before), tables pristine %v",
			after.ILMReplacements, before.ILMReplacements, sameILM(n, pristine))
	}
}

// TestOverlayRows pins the constructor's contract on a hand-built list: the
// first of a patch named twice wins, the wanted list is copied and each
// row's labels are derived once, at construction, ILMRow reads the
// overlay's row and falls back to the router's own, a patch whose row the
// network lacks is refused, the empty list is the nil overlay, which
// patches nothing, and over no network the overlay holds the patches
// alone, in router order.
func TestOverlayRows(t *testing.T) {
	_, n, _, between, hops := ringNet(t)
	lsp := func(s, d graph.NodeID, i int) *LSP { return between[[2]graph.NodeID{s, d}][i] }
	a, b := hops[1], hops[len(hops)/2]
	endRoute := func(p ILMPatch, splice ...*LSP) ILMPatch {
		p.Splice = splice
		return p
	}
	aEnd, bEnd := a.Crossing.Egress(), b.Crossing.Egress()
	key := func(p ILMPatch) Label { l, _ := patchedRow(p); return l }
	base := func(p ILMPatch) ILMEntry {
		e, ok := n.Router(p.Router).ILMEntryFor(key(p))
		if !ok {
			t.Fatalf("row %d/%d vanished", p.Router, key(p))
		}
		return e
	}

	scratch := []*LSP{lsp(a.Router, aEnd, 0)}
	bFirst, bSecond := endRoute(b, lsp(b.Router, bEnd, 0)), endRoute(b, lsp(b.Router, bEnd, 1))
	want := []ILMPatch{bFirst, endRoute(a, scratch...), bSecond}
	ov, err := NewILMOverlay(n, want)
	if err != nil {
		t.Fatal(err)
	}
	_, wantA := patchedRow(endRoute(a, scratch...))
	_, wantB := patchedRow(bFirst)
	scratch[0] = lsp(a.Router, aEnd, 1)
	want[1].Hop = 99
	if ov.Len() != 2 || slices.ContainsFunc(ov.Patches(), func(p ILMPatch) bool { return p.Hop == 99 }) {
		t.Fatalf("Len = %d, want 2, patches %+v: the wanted list is not copied", ov.Len(), ov.Patches())
	}
	if got, ok := n.ILMRow(a.Router, key(a), ov); !ok || !sameEntry(got, wantA) {
		t.Fatalf("row a = %+v, %v, want %+v: its labels were not frozen at construction", got, ok, wantA)
	}
	if got, ok := n.ILMRow(b.Router, key(b), ov); !ok || !sameEntry(got, wantB) {
		t.Fatalf("row b = %+v, %v: want the first patch's %+v", got, ok, wantB)
	}
	c := hops[2]
	if got, ok := n.ILMRow(c.Router, key(c), ov); !ok || !sameEntry(got, base(c)) {
		t.Fatalf("unpatched row = %+v, %v: want the router's own %+v", got, ok, base(c))
	}
	if got, ok := n.ILMRow(a.Router, key(a), nil); !ok || !sameEntry(got, base(a)) {
		t.Fatalf("under the nil overlay row a = %+v, %v: want the router's own %+v", got, ok, base(a))
	}
	if _, ok := n.ILMRow(a.Router, 9999, ov); ok {
		t.Fatal("a label no router holds has a row")
	}

	// A record carries no label, so no row of the network is its.
	rec := Records([]graph.Path{a.Crossing.Path})[0]
	if ov, err := NewILMOverlay(n, []ILMPatch{endRoute(a, lsp(a.Router, aEnd, 0)), {Router: a.Router, Crossing: rec, Hop: a.Hop, Splice: []*LSP{lsp(a.Router, aEnd, 0)}}}); err == nil {
		t.Fatalf("a patch with no base row froze into %v", ov)
	}
	if ov, err := NewILMOverlay(n, nil); ov != nil || err != nil {
		t.Fatalf("the empty list froze into %v, %v", ov, err)
	}

	aFresh := endRoute(a, lsp(a.Router, aEnd, 0))
	bare, err := NewILMOverlay(nil, []ILMPatch{bFirst, aFresh, bSecond})
	if err != nil {
		t.Fatal(err)
	}
	first, second := aFresh, bFirst
	if b.Router < a.Router {
		first, second = bFirst, aFresh
	}
	if ps := bare.Patches(); len(ps) != 2 || bare.Len() != 2 ||
		ps[0].Crossing != first.Crossing || !slices.Equal(ps[0].Splice, first.Splice) ||
		ps[1].Crossing != second.Crossing || !slices.Equal(ps[1].Splice, second.Splice) {
		t.Fatalf("over no network the overlay holds %+v, want %+v then %+v", ps, first, second)
	}
}

// TestILMPatchSize: a local transition holds one ILMPatch per patched row,
// so the layout is pinned: Resume sits in Router's padding and a patch is
// 48 bytes on a 64-bit platform (56 with Resume last).
func TestILMPatchSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(ILMPatch{}); got != 48 {
		t.Fatalf("ILMPatch is %d bytes, want 48", got)
	}
}

// TestOverlayRefusesMalformedPatches: with a network or without, a patch is
// refused, with an error naming its router, LSP and hop, when the crossing's
// hop is not at the router, the splice does not chain, or the splice does
// not run from the router to where the patch resumes — the crossing's egress
// for end-route, its next hop's router for edge-bypass.
func TestOverlayRefusesMalformedPatches(t *testing.T) {
	_, n, _, between, _ := ringNet(t)
	lsp := func(s, d graph.NodeID) *LSP { return between[[2]graph.NodeID{s, d}][0] }
	cross := lsp(0, 3) // 0 1 2 3
	r, next, egress := cross.Path.Nodes[1], cross.Path.Nodes[2], cross.Egress()
	good := []ILMPatch{
		{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(r, egress)}},
		{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(r, next)}, Resume: true},
	}
	for _, p := range good {
		for _, net := range []*Network{n, nil} {
			if _, err := NewILMOverlay(net, []ILMPatch{p}); err != nil {
				t.Fatalf("a well-formed patch %+v refused: %v", p, err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		p    ILMPatch
	}{
		{"hop at another router", ILMPatch{Router: next, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(next, egress)}}},
		{"hop before the path", ILMPatch{Router: r, Crossing: cross, Hop: -1, Splice: []*LSP{lsp(r, egress)}}},
		{"hop past the path", ILMPatch{Router: egress, Crossing: cross, Hop: 3, Splice: []*LSP{lsp(r, egress)}}},
		{"splice that does not chain", ILMPatch{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(r, next), lsp(r, egress)}}},
		{"empty splice", ILMPatch{Router: r, Crossing: cross, Hop: 1}},
		{"splice from another router", ILMPatch{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(next, egress)}}},
		{"end-route short of the egress", ILMPatch{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(r, next)}}},
		{"bypass past the next hop", ILMPatch{Router: r, Crossing: cross, Hop: 1, Splice: []*LSP{lsp(r, egress)}, Resume: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, net := range []*Network{n, nil} {
				want := []ILMPatch{good[0], tc.p}
				ov, err := NewILMOverlay(net, want)
				if err == nil {
					t.Fatalf("network %v: the malformed patch froze into %v", net != nil, ov)
				}
				if name := fmt.Sprintf("router %d of LSP %d at hop %d", tc.p.Router, cross.ID, tc.p.Hop); !strings.Contains(err.Error(), name) {
					t.Fatalf("network %v: %v; the error does not name the patch (%s)", net != nil, err, name)
				}
			}
		})
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
	lsps := []*LSP{lsp}
	dead := lsp.Path.Edges[2] // link 2-3
	pkt, err := n.Send(4, lsps, graph.FailEdges(g, dead), nil)
	if !errors.Is(err, ErrLinkDown) || pkt.At != 2 {
		t.Fatalf("view without link %d: packet at %d, err = %v, want ErrLinkDown at 2", dead, pkt.At, err)
	}
	if !n.EdgeUp(dead) {
		t.Fatal("forwarding under a view moved the network's own link state")
	}
	if pkt, err := n.Send(4, lsps, nil, nil); err != nil || pkt.At != 4 {
		t.Fatalf("the network's own link state: packet %+v, err = %v", pkt, err)
	}
	n.FailEdge(dead)
	if pkt, err := n.Send(4, lsps, graph.FailEdges(g), nil); err != nil || pkt.At != 4 {
		t.Fatalf("pristine view over a network holding link %d down: packet %+v, err = %v", dead, pkt, err)
	}
}
