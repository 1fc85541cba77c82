package mpls

import (
	"fmt"
	"slices"

	"rbpc/internal/graph"
)

// LSP is an established label-switched path, or the record of one.
//
// A Network's LSP (EstablishLSP, EstablishLSPs) carries the labels laid out
// below and has its rows installed along the path. A record (Records)
// carries the ID and path only: it has no labels — SelfLabel reads 0,
// HopLabel finds none, and FirstHopLabel, ConcatStack and SelfStack are
// not for records — and installs nothing. It is what a process that only
// names LSPs needs of them.
//
// Label layout for a path v_0 e_0 v_1 e_1 ... e_{m-1} v_m:
//
//	selfLabel          — allocated by v_0; ILM row at v_0 swaps it to
//	                     hopLabels[0] and forwards on e_0. It exists so the
//	                     LSP can be the *second or later* component of a
//	                     concatenation: a pop at the previous LSP's egress
//	                     exposes selfLabel, which v_0 then resolves.
//	hopLabels[i]       — allocated by v_{i+1}: the label carried on link
//	                     e_i. Transit routers swap hopLabels[i] ->
//	                     hopLabels[i+1]; the egress v_m pops hopLabels[m-1].
//
// With penultimate-hop popping (PHP) the router v_{m-1} pops instead of
// swapping and the egress installs no entry; the paper uses this for
// two-hop bypass paths ("no label overhead").
type LSP struct {
	ID   LSPID
	Path graph.Path
	PHP  bool

	selfLabel Label
	hopLabels []Label
}

// Ingress returns the LSP's first router.
func (l *LSP) Ingress() graph.NodeID { return l.Path.Src() }

// Egress returns the LSP's last router.
func (l *LSP) Egress() graph.NodeID { return l.Path.Dst() }

// SelfLabel returns the label that names this LSP at its own ingress —
// what a concatenating router pushes beneath the current stack so the
// packet continues onto this LSP.
func (l *LSP) SelfLabel() Label { return l.selfLabel }

// FirstHopLabel returns the label the ingress sends on the first link.
func (l *LSP) FirstHopLabel() Label { return l.hopLabels[0] }

// FirstEdge returns the LSP's first link.
func (l *LSP) FirstEdge() graph.EdgeID { return l.Path.Edges[0] }

// HopLabel returns the label carried on the LSP's i-th link (the label
// with which the packet arrives at Path.Nodes[i+1]). Under PHP the last
// hop carries the inner stack and has no label of its own.
func (l *LSP) HopLabel(i int) (Label, bool) {
	if i < 0 || i >= len(l.hopLabels) || (l.PHP && i == len(l.hopLabels)-1) {
		return 0, false
	}
	return l.hopLabels[i], true
}

// IncomingLabelAt returns the label with which packets on this LSP arrive
// at router v (which must be a non-ingress node of the path).
func (l *LSP) IncomingLabelAt(v graph.NodeID) (Label, bool) {
	for i := 1; i < len(l.Path.Nodes); i++ {
		if l.Path.Nodes[i] == v {
			return l.hopLabels[i-1], true
		}
	}
	return 0, false
}

// EstablishLSP provisions an LSP along path, allocating labels downstream
// and installing ILM rows at every router. It costs Hops() signaling
// messages (one label mapping per hop) plus one for the ingress self-row.
// The path must be nontrivial and usable (all links up). The LSP keeps a
// copy of path.
func (n *Network) EstablishLSP(path graph.Path) (*LSP, error) {
	return first(n.establish([]graph.Path{path.Clone()}, false))
}

// EstablishLSPPHP provisions an LSP with penultimate-hop popping: the
// egress holds no ILM row for it, so a 2-hop bypass adds no label state at
// the resumption router.
func (n *Network) EstablishLSPPHP(path graph.Path) (*LSP, error) {
	return first(n.establish([]graph.Path{path.Clone()}, true))
}

// EstablishLSPs provisions an LSP along each of paths, in order, exactly
// as EstablishLSP called on each in turn would — the same IDs, labels, ILM
// rows and signaling. The LSPs share paths, which the caller must not
// modify afterwards (a base set's stored paths, which nothing writes). At
// the first path EstablishLSP would refuse it stops and returns the LSPs
// established before it with the error.
func (n *Network) EstablishLSPs(paths []graph.Path) ([]*LSP, error) {
	return n.establish(paths, false)
}

// Records returns the LSPs a fresh network's EstablishLSPs would establish
// along paths, as records: the same IDs, from 1 in order, each sharing its
// path, and no labels. Nothing validates the paths; they are a base set's
// stored paths, which a network would establish as they are.
func Records(paths []graph.Path) []*LSP {
	recs := make([]LSP, len(paths))
	out := make([]*LSP, len(paths))
	for i, p := range paths {
		recs[i] = LSP{ID: firstLSPID + LSPID(i), Path: p}
		out[i] = &recs[i]
	}
	return out
}

func first(lsps []*LSP, err error) (*LSP, error) {
	if err != nil {
		return nil, err
	}
	return lsps[0], nil
}

// establish provisions an LSP along each of paths, sharing the path, in
// flat passes: each router's ILM table is grown once, to the labels the
// batch allocates there (counted as if no LSP were PHP, an egress label
// more than a PHP one takes), and the LSP records and their hop labels are
// carved from one array each.
func (n *Network) establish(paths []graph.Path, php bool) ([]*LSP, error) {
	// The ingress allocates the self-label and every later node the label
	// of the hop into it. A node no router has is install's to refuse.
	known := func(v graph.NodeID) bool { return v >= 0 && int(v) < len(n.routers) }
	hops := 0
	for _, p := range paths {
		hops += p.Hops()
		for _, v := range p.Nodes {
			if known(v) {
				n.routers[v].reserved++
			}
		}
	}
	for _, p := range paths {
		for _, v := range p.Nodes {
			if known(v) && n.routers[v].reserved > 0 {
				n.routers[v].reserveILM()
			}
		}
	}
	n.lsps = slices.Grow(n.lsps, len(paths))
	s := &lspSlab{lsps: make([]LSP, len(paths)), labels: make([]Label, hops)}
	out := make([]*LSP, 0, len(paths))
	done := 0 // hops of the LSPs in out
	var err error
	for _, p := range paths {
		var lsp *LSP
		if lsp, err = n.install(p, php, s); err != nil {
			break
		}
		out = append(out, lsp)
		done += p.Hops()
	}
	n.stats.lspsEstablished.Add(int64(len(out)))
	n.stats.signalingMsgs.Add(int64(done + len(out))) // one mapping per hop + ingress row
	return out, err
}

// lspSlab hands out LSP records and hop labels from one array each.
type lspSlab struct {
	lsps   []LSP
	labels []Label
}

// install establishes one LSP over path, its record and hop labels taken
// from s; establish counts the signaling.
func (n *Network) install(path graph.Path, php bool, s *lspSlab) (*LSP, error) {
	if path.Hops() == 0 {
		return nil, fmt.Errorf("%w: trivial path", errInvalidPath)
	}
	if err := path.Validate(n.g); err != nil {
		return nil, fmt.Errorf("%w: %v", errInvalidPath, err)
	}
	for _, e := range path.Edges {
		if !n.edgeUp[e] {
			return nil, fmt.Errorf("%w: link %d is down", errInvalidPath, e)
		}
	}
	if php && path.Hops() == 1 {
		return nil, fmt.Errorf("%w: PHP needs at least 2 hops", errInvalidPath)
	}

	m := path.Hops()
	lsp := &s.lsps[0]
	s.lsps = s.lsps[1:]
	lsp.ID, lsp.Path, lsp.PHP = n.nextLSP, path, php
	lsp.hopLabels, s.labels = s.labels[:m:m], s.labels[m:]
	n.nextLSP++

	// Downstream assignment: v_{i+1} assigns the label for link e_i.
	// With PHP the egress assigns none; the final swap at v_{m-1} becomes
	// a pop.
	last := m
	if php {
		last = m - 1
	}
	for i := 0; i < last; i++ {
		lsp.hopLabels[i] = n.routers[path.Nodes[i+1]].allocLabel()
	}

	// Ingress self-row. A swap row's one out-label is the LSP's own hop
	// label, shared: neither is ever written after this.
	ingress := n.routers[path.Src()]
	lsp.selfLabel = ingress.allocLabel()
	ingress.setILM(lsp.selfLabel, ILMEntry{
		Out:     lsp.hopLabels[0:1:1],
		OutEdge: path.Edges[0],
		LSP:     lsp.ID,
	})

	// Transit and egress rows.
	for i := 1; i <= m; i++ {
		r := n.routers[path.Nodes[i]]
		in := lsp.hopLabels[i-1]
		switch {
		case i == m:
			if php {
				continue // egress holds no row under PHP
			}
			r.setILM(in, ILMEntry{Out: nil, OutEdge: LocalProcess, LSP: lsp.ID})
		case php && i == m-1:
			// Penultimate pop: forward the inner stack on the last link.
			r.setILM(in, ILMEntry{Out: nil, OutEdge: path.Edges[i], LSP: lsp.ID})
		default:
			r.setILM(in, ILMEntry{Out: lsp.hopLabels[i : i+1 : i+1], OutEdge: path.Edges[i], LSP: lsp.ID})
		}
	}

	n.lsps = append(n.lsps, lsp)
	n.numLSPs++
	return lsp, nil
}

// TeardownLSP removes the LSP's rows everywhere and releases its labels,
// costing one release message per hop.
func (n *Network) TeardownLSP(id LSPID) error {
	lsp, ok := n.LSPByID(id)
	if !ok {
		return fmt.Errorf("mpls: teardown of unknown LSP %d", id)
	}
	m := lsp.Path.Hops()
	n.routers[lsp.Path.Src()].freeLabel(lsp.selfLabel)
	last := m
	if lsp.PHP {
		last = m - 1
	}
	for i := 0; i < last; i++ {
		n.routers[lsp.Path.Nodes[i+1]].freeLabel(lsp.hopLabels[i])
	}
	n.lsps[id] = nil
	n.numLSPs--
	n.stats.lspsTornDown.Add(1)
	n.stats.signalingMsgs.Add(int64(m))
	return nil
}

// LSPByID returns an established LSP.
func (n *Network) LSPByID(id LSPID) (*LSP, bool) {
	if id < 0 || int(id) >= len(n.lsps) || n.lsps[id] == nil {
		return nil, false
	}
	return n.lsps[id], true
}

// NumLSPs returns the number of currently established LSPs.
func (n *Network) NumLSPs() int { return n.numLSPs }

// TotalILM returns the summed ILM sizes over all routers, and the largest
// single table.
func (n *Network) TotalILM() (total, max int) {
	for _, r := range n.routers {
		s := r.ILMSize()
		total += s
		if s > max {
			max = s
		}
	}
	return total, max
}

// CheckChain reports whether the LSPs concatenate: there is at least one,
// each after the first starts where the one before it ends, and none but
// the last uses PHP — under PHP the inner label is exposed one hop early,
// at the penultimate router of the previous LSP, which is only correct if
// that router equals the next LSP's ingress, and the general case is
// rejected.
func CheckChain(lsps []*LSP) error {
	if len(lsps) == 0 {
		return fmt.Errorf("mpls: empty concatenation")
	}
	for i := 1; i < len(lsps); i++ {
		if lsps[i-1].Egress() != lsps[i].Ingress() {
			return fmt.Errorf("mpls: LSP %d ends at %d but LSP %d starts at %d",
				lsps[i-1].ID, lsps[i-1].Egress(), lsps[i].ID, lsps[i].Ingress())
		}
		if lsps[i-1].PHP {
			return fmt.Errorf("mpls: LSP %d uses PHP and cannot be concatenated before another LSP", lsps[i-1].ID)
		}
	}
	return nil
}

// ConcatStack builds the label stack (bottom-first) that sends a packet
// along the concatenation of the given LSPs: the first hop label of the
// first LSP on top, then the self-labels of the remaining LSPs beneath it.
// It errors unless the LSPs chain (CheckChain).
func ConcatStack(lsps []*LSP) ([]Label, graph.EdgeID, error) {
	if err := CheckChain(lsps); err != nil {
		return nil, 0, err
	}
	// Bottom-first: deepest label continues the last LSP.
	stack := make([]Label, 0, len(lsps))
	for i := len(lsps) - 1; i >= 1; i-- {
		stack = append(stack, lsps[i].SelfLabel())
	}
	stack = append(stack, lsps[0].FirstHopLabel())
	return stack, lsps[0].FirstEdge(), nil
}

// SelfStack builds the label stack (bottom-first) of the concatenation's
// self-labels, for use with LocalProcess: the holding router resolves the
// top self-label through its own ILM. The first LSP must therefore start
// at the router that will process the stack. It errors unless the LSPs
// chain (CheckChain).
func SelfStack(lsps []*LSP) ([]Label, error) {
	if err := CheckChain(lsps); err != nil {
		return nil, err
	}
	stack := make([]Label, 0, len(lsps))
	for i := len(lsps) - 1; i >= 0; i-- {
		stack = append(stack, lsps[i].SelfLabel())
	}
	return stack, nil
}
