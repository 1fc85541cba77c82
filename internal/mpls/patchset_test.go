package mpls

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rbpc/internal/graph"
)

// Apply and RevertAll are the patch-by-patch form of a PatchSet, which Sync
// replaced in the engine: they stay here as the reference Sync is compared
// against (TestPatchSetSyncMatchesRebuild).

// Apply replaces the ILM row for label at router with entry, recording
// the displaced row for RevertAll. It fails if the router has no row for
// the label (patches only ever replace live forwarding state).
func (ps *PatchSet) Apply(n *Network, router graph.NodeID, label Label, entry ILMEntry) error {
	prev, err := n.ReplaceILM(router, label, entry)
	if err != nil {
		return err
	}
	ps.record(patchKey{router, label}, prev, entry)
	return nil
}

// RevertAll restores every recorded row on n and clears the set. It
// panics if a patched row has vanished — the engine's linear net lineage
// guarantees it cannot, so a miss is a lifecycle bug, not a recoverable
// condition.
func (ps *PatchSet) RevertAll(n *Network) {
	for i := len(ps.applied) - 1; i >= 0; i-- {
		ps.revert(n, ps.applied[i])
	}
	clear(ps.applied)
	ps.applied = ps.applied[:0]
	clear(ps.index)
}

// TestPatchSetApplyRevert: Apply replaces a live ILM row and records the
// displaced entry; RevertAll restores it (on a later COW clone, matching
// the engine's linear net lineage) and clears the set.
func TestPatchSetApplyRevert(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	inLabel, ok := lsp.HopLabel(0) // label under which traffic is processed at router 1
	if !ok {
		t.Fatal("no hop label into router 1")
	}
	orig, ok := n.Router(1).ILMEntryFor(inLabel)
	if !ok {
		t.Fatal("router 1 has no row for the hop label")
	}

	var ps PatchSet
	patched := ILMEntry{Out: nil, OutEdge: LocalProcess}
	if err := ps.Apply(n, 1, inLabel, patched); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if ps.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ps.Len())
	}
	if got, _ := n.Router(1).ILMEntryFor(inLabel); got.OutEdge != LocalProcess || len(got.Out) != 0 {
		t.Fatalf("patched row = %+v", got)
	}

	// Revert on a clone: the patch was applied on n, the restore lands on
	// the next epoch's copy — exactly the engine's lifecycle.
	n2 := n.Clone()
	ps.RevertAll(n2)
	if ps.Len() != 0 {
		t.Fatalf("Len after revert = %d", ps.Len())
	}
	got, ok := n2.Router(1).ILMEntryFor(inLabel)
	if !ok || got.OutEdge != orig.OutEdge || len(got.Out) != len(orig.Out) {
		t.Fatalf("reverted row = %+v, want %+v", got, orig)
	}
	// The patched network is untouched by the revert (COW isolation).
	if still, _ := n.Router(1).ILMEntryFor(inLabel); still.OutEdge != LocalProcess {
		t.Fatalf("revert leaked into the patched clone: %+v", still)
	}
}

// TestPatchSetApplyMissingRow: patching a label with no live row fails and
// records nothing.
func TestPatchSetApplyMissingRow(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	var ps PatchSet
	if err := ps.Apply(n, 1, Label(9999), ILMEntry{OutEdge: LocalProcess}); err == nil {
		t.Fatal("Apply of a missing row succeeded")
	}
	if ps.Len() != 0 {
		t.Fatalf("failed Apply recorded a patch: Len = %d", ps.Len())
	}
}

// TestPatchSetRevertOrder: multiple patches revert most-recent-first, so
// every recorded row comes back even across routers.
func TestPatchSetRevertOrder(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSP(pathOf(g, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var ps PatchSet
	for hop, router := range []graph.NodeID{1, 2} {
		l, ok := lsp.HopLabel(hop)
		if !ok {
			t.Fatalf("no hop label %d", hop)
		}
		if err := ps.Apply(n, router, l, ILMEntry{OutEdge: LocalProcess}); err != nil {
			t.Fatalf("Apply at %d: %v", router, err)
		}
	}
	if ps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ps.Len())
	}
	ps.RevertAll(n)
	// Both rows must forward again: a packet over the LSP delivers.
	pkt, err := n.SendOnLSPs(3, []*LSP{lsp})
	if err != nil || pkt.At != 3 {
		t.Fatalf("post-revert forwarding broken: pkt=%+v err=%v", pkt, err)
	}
}

// syncFixture provisions a few LSPs over the 5-node line and returns the
// patchable rows: every (router, label) an LSP installed.
func syncFixture(t *testing.T) (*Network, []patchKey) {
	t.Helper()
	g := line5()
	n := NewNetwork(g)
	var rows []patchKey
	for _, nodes := range [][]graph.NodeID{{0, 1, 2, 3, 4}, {4, 3, 2, 1}, {1, 2, 3}, {3, 2}} {
		lsp, err := n.EstablishLSP(pathOf(g, nodes...))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, patchKey{lsp.Ingress(), lsp.SelfLabel()})
		for i := range lsp.Path.Edges {
			l, _ := lsp.HopLabel(i)
			rows = append(rows, patchKey{lsp.Path.Nodes[i+1], l})
		}
	}
	return n, rows
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

// TestPatchSetSync walks one set through a new row, an unchanged row, a
// changed row and a vanished row, then back to pristine: only the
// difference is written, a rewritten row keeps the entry it first
// displaced, and the empty want restores every original entry.
func TestPatchSetSync(t *testing.T) {
	n, rows := syncFixture(t)
	pristine := n.Clone()
	a, b, c := rows[1], rows[2], rows[6]
	row := func(k patchKey, out ...Label) ILMPatch {
		return ILMPatch{Router: k.router, Label: k.label, Entry: ILMEntry{Out: out, OutEdge: LocalProcess}}
	}
	entry := func(n *Network, k patchKey) ILMEntry {
		e, ok := n.Router(k.router).ILMEntryFor(k.label)
		if !ok {
			t.Fatalf("row %v vanished", k)
		}
		return e
	}
	writes := func(n *Network) int { return n.Stats().ILMReplacements }

	var ps PatchSet
	// New rows. The wanted entries live in scratch the caller reuses.
	scratch := []Label{70, 71}
	n1 := n.Clone()
	if err := ps.Sync(n1, []ILMPatch{row(a, scratch...), row(b, 80)}); err != nil {
		t.Fatal(err)
	}
	scratch[0] = 99
	if ps.Len() != 2 || writes(n1)-writes(n) != 2 {
		t.Fatalf("after first Sync: Len %d, %d rows written", ps.Len(), writes(n1)-writes(n))
	}
	if got := entry(n1, a); !slices.Equal(got.Out, []Label{70, 71}) {
		t.Fatalf("installed row aliases caller scratch: %+v", got)
	}

	// a unchanged, b changed, c new — and c named twice: the first wins.
	n2 := n1.Clone()
	if err := ps.Sync(n2, []ILMPatch{row(a, 70, 71), row(b, 81), row(c, 90), row(c, 91)}); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 3 || writes(n2)-writes(n1) != 2 {
		t.Fatalf("after second Sync: Len %d, %d rows written (want b and c only)", ps.Len(), writes(n2)-writes(n1))
	}
	if got := entry(n2, b); !slices.Equal(got.Out, []Label{81}) {
		t.Fatalf("changed row = %+v", got)
	}
	if got := entry(n2, c); !slices.Equal(got.Out, []Label{90}) {
		t.Fatalf("duplicated row = %+v, want the first entry", got)
	}
	// a sits alone on its router, whose copy-on-write table must not have
	// been copied for a row that did not change.
	if !n2.Router(a.router).sharedILM || n2.Router(b.router).sharedILM {
		t.Fatalf("table copied: unchanged router %v, changed router %v (want false, true)",
			!n2.Router(a.router).sharedILM, !n2.Router(b.router).sharedILM)
	}

	// a and c vanish; b stays as it is.
	n3 := n2.Clone()
	if err := ps.Sync(n3, []ILMPatch{row(b, 81)}); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 1 || writes(n3)-writes(n2) != 2 {
		t.Fatalf("after third Sync: Len %d, %d rows written (want a and c reverted)", ps.Len(), writes(n3)-writes(n2))
	}
	for _, k := range []patchKey{a, c} {
		if !sameEntry(entry(n3, k), entry(pristine, k)) {
			t.Fatalf("vanished row %v = %+v, want the original %+v", k, entry(n3, k), entry(pristine, k))
		}
	}

	// A row that does not exist fails the Sync and records nothing for it.
	if err := ps.Sync(n3, []ILMPatch{row(b, 81), row(patchKey{1, 9999})}); err == nil {
		t.Fatal("Sync of a missing row succeeded")
	}
	if ps.Len() != 1 {
		t.Fatalf("failed Sync recorded a patch: Len = %d", ps.Len())
	}

	// Back to pristine: b was rewritten once, and still reverts to the
	// entry it displaced the first time.
	n4 := n3.Clone()
	if err := ps.Sync(n4, nil); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 0 || !sameILM(n4, pristine) {
		t.Fatalf("empty Sync left %d patches; tables pristine: %v", ps.Len(), sameILM(n4, pristine))
	}
}

// TestPatchSetSyncMatchesRebuild is the Sync oracle: over random wanted
// sets on a cloned lineage, the tables Sync leaves equal, row for row at
// every router, those of RevertAll followed by a full re-apply.
func TestPatchSetSyncMatchesRebuild(t *testing.T) {
	n, rows := syncFixture(t)
	pristine := n.Clone()
	rng := rand.New(rand.NewSource(9))
	var fast, ref PatchSet
	fastNet, refNet := n.Clone(), n.Clone()
	for step := 0; step < 200; step++ {
		var want []ILMPatch
		for _, k := range rows {
			if rng.Intn(3) == 0 {
				// Few distinct entries, so rows often stay as they are.
				want = append(want, ILMPatch{Router: k.router, Label: k.label,
					Entry: ILMEntry{Out: []Label{Label(100 + rng.Intn(2))}, OutEdge: LocalProcess}})
			}
		}
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		if step == 199 {
			want = nil
		}
		fastNet, refNet = fastNet.Clone(), refNet.Clone()
		if err := fast.Sync(fastNet, want); err != nil {
			t.Fatal(err)
		}
		ref.RevertAll(refNet)
		for _, w := range want {
			if err := ref.Apply(refNet, w.Router, w.Label, w.Entry); err != nil {
				t.Fatal(err)
			}
		}
		if fast.Len() != len(want) || !sameILM(fastNet, refNet) {
			t.Fatalf("step %d: Sync holds %d patches for %d wanted rows; tables equal: %v",
				step, fast.Len(), len(want), sameILM(fastNet, refNet))
		}
	}
	if !sameILM(fastNet, pristine) {
		t.Fatal("lineage did not return to pristine")
	}
}
