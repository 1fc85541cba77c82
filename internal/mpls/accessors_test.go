package mpls

import "testing"

func TestNetworkAccessors(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	if n.Graph() != g {
		t.Error("Graph()")
	}
	if !n.EdgeUp(0) {
		t.Error("fresh link down")
	}
	lsp, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	got, ok := n.LSPByID(lsp.ID)
	if !ok || got != lsp {
		t.Error("LSPByID")
	}
	if _, ok := n.LSPByID(999); ok {
		t.Error("LSPByID(bogus)")
	}
	if l, ok := lsp.HopLabel(0); !ok || l != lsp.FirstHopLabel() {
		t.Error("HopLabel(0)")
	}
	if _, ok := lsp.HopLabel(5); ok {
		t.Error("HopLabel out of range")
	}
	if _, ok := lsp.HopLabel(-1); ok {
		t.Error("HopLabel(-1)")
	}
}

func TestHopLabelPHP(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	lsp, err := n.EstablishLSPPHP(pathOf(g, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lsp.HopLabel(1); ok {
		t.Error("PHP last hop has a label")
	}
	if _, ok := lsp.HopLabel(0); !ok {
		t.Error("PHP first hop missing label")
	}
}

func TestSelfStackDirect(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	a, _ := n.EstablishLSP(pathOf(g, 0, 1, 2))
	b, _ := n.EstablishLSP(pathOf(g, 2, 3))
	stack, err := SelfStack([]*LSP{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(stack) != 2 || stack[1] != a.SelfLabel() || stack[0] != b.SelfLabel() {
		t.Errorf("SelfStack = %v", stack)
	}
	if _, err := SelfStack(nil); err == nil {
		t.Error("empty SelfStack accepted")
	}
	if _, err := SelfStack([]*LSP{b, a}); err == nil {
		t.Error("non-chaining SelfStack accepted")
	}
	php, _ := n.EstablishLSPPHP(pathOf(g, 0, 1, 2))
	if _, err := SelfStack([]*LSP{php, b}); err == nil {
		t.Error("PHP non-final accepted")
	}
}

func TestClearFECAndDests(t *testing.T) {
	g := line5()
	n := NewNetwork(g)
	n.SetFEC(0, 3, FECEntry{Stack: []Label{1}, OutEdge: 0})
	n.SetFEC(0, 4, FECEntry{Stack: []Label{2}, OutEdge: 0})
	dests := n.Router(0).FECDests()
	if len(dests) != 2 {
		t.Errorf("FECDests = %v", dests)
	}
	n.ClearFEC(0, 3)
	if n.Router(0).FECSize() != 1 {
		t.Error("ClearFEC")
	}
	updates := n.Stats().FECUpdates
	n.ClearFEC(0, 3) // idempotent, no counter bump
	if n.Stats().FECUpdates != updates {
		t.Error("ClearFEC of absent row counted")
	}
}
