package mpls

import (
	"fmt"

	"rbpc/internal/graph"
)

// Label merging (Section 2 of the paper): "various methods to reduce the
// number of labels necessary have been considered, e.g., merging LSPs,
// which means using the same label for all the packets with the same
// destination even if they arrive from different ports."
//
// A DestTree is the merged form: one multipoint-to-point LSP per
// destination, following a next-hop tree. Every router holds exactly one
// ILM row per destination — n-1 rows per router for full coverage,
// against the hop-proportional footprint of point-to-point LSPs.
//
// Merged labels compose with path concatenation exactly like LSP
// self-labels: to route via intermediate M to destination D, push M's
// label for D beneath the stack that reaches M; M's pop exposes it and
// the merged tree carries the packet on.

// DestTree is an installed merged LSP toward one destination.
type DestTree struct {
	Dst graph.NodeID
	// labels[r] is the label router r expects on packets bound for Dst
	// (the row it holds in its ILM). The destination itself pops.
	labels map[graph.NodeID]Label
}

// LabelAt returns the merged label router r uses for this destination —
// the label to push so that a packet currently at r continues to Dst.
func (t *DestTree) LabelAt(r graph.NodeID) (Label, bool) {
	l, ok := t.labels[r]
	return l, ok
}

// Size returns the number of routers holding a row for this tree.
func (t *DestTree) Size() int { return len(t.labels) }

// InstallDestTree installs the merged LSP for dst along the given
// next-hop map: nextHop[r] is the arc router r forwards dst-bound traffic
// on. Every router with a next hop gets one ILM row; dst gets a pop row.
// The next-hop map must be loop-free and lead to dst (a shortest-path
// tree oriented toward dst); Validate-style checks reject arcs that do
// not originate at their router.
//
// It costs one signaling message per participating router (label
// distribution is per destination, as in LDP's default mode).
func (n *Network) InstallDestTree(dst graph.NodeID, nextHop map[graph.NodeID]graph.Arc) (*DestTree, error) {
	// First pass: validate and allocate labels.
	tree := &DestTree{Dst: dst, labels: make(map[graph.NodeID]Label, len(nextHop)+1)}
	for r, arc := range nextHop {
		if r == dst {
			return nil, fmt.Errorf("mpls: InstallDestTree: destination %d has a next hop", dst)
		}
		e := n.g.Edge(arc.Edge)
		if e.U != r && e.V != r {
			return nil, fmt.Errorf("mpls: InstallDestTree: router %d next hop over non-incident link %d", r, arc.Edge)
		}
		if e.Other(r) != arc.To {
			return nil, fmt.Errorf("mpls: InstallDestTree: router %d arc to %d over link %d mismatch", r, arc.To, arc.Edge)
		}
	}
	for r := range nextHop {
		tree.labels[r] = n.routers[r].allocLabel()
	}
	tree.labels[dst] = n.routers[dst].allocLabel()

	// Second pass: install rows. Router r swaps its label for the next
	// hop's label; the destination pops.
	for r, arc := range nextHop {
		next, ok := tree.labels[arc.To]
		if !ok {
			// A next hop that has no next hop itself and is not dst would
			// strand packets.
			n.uninstallPartial(tree)
			return nil, fmt.Errorf("mpls: InstallDestTree: router %d forwards to %d which has no row", r, arc.To)
		}
		n.routers[r].setSideILM(tree.labels[r], ILMEntry{Out: []Label{next}, OutEdge: arc.Edge})
	}
	n.routers[dst].setSideILM(tree.labels[dst], ILMEntry{Out: nil, OutEdge: LocalProcess})
	n.stats.signalingMsgs.Add(int64(len(tree.labels)))
	return tree, nil
}

func (n *Network) uninstallPartial(tree *DestTree) {
	for r := range tree.labels {
		n.routers[r].freeLabel(tree.labels[r])
	}
}

// RemoveDestTree uninstalls the tree's rows and frees its labels.
func (n *Network) RemoveDestTree(tree *DestTree) {
	for r, l := range tree.labels {
		n.routers[r].freeLabel(l)
	}
	n.stats.signalingMsgs.Add(int64(len(tree.labels)))
}

// SendMerged injects a packet at src carrying the merged label toward the
// tree's destination.
func (n *Network) SendMerged(src graph.NodeID, tree *DestTree) (*Packet, error) {
	l, ok := tree.LabelAt(src)
	if !ok {
		return nil, fmt.Errorf("mpls: router %d not on the tree for %d: %w", src, tree.Dst, ErrNoRoute)
	}
	pkt := &Packet{
		Src: src, Dst: tree.Dst,
		Stack: []Label{l},
		At:    src,
		TTL:   DefaultTTL,
		Trace: []graph.NodeID{src},
	}
	return pkt, n.Forward(pkt, nil, nil)
}

// MergedConcatStack builds the bottom-first stack that rides the given
// trees in order: the packet follows trees[0] from src to trees[0].Dst,
// whose pop exposes trees[1]'s label there, and so on. Each tree's
// destination must carry a label for the next tree.
func MergedConcatStack(src graph.NodeID, trees []*DestTree) ([]Label, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("mpls: empty merged concatenation")
	}
	at := src
	stack := make([]Label, len(trees))
	for i, tr := range trees {
		l, ok := tr.LabelAt(at)
		if !ok {
			return nil, fmt.Errorf("mpls: router %d has no label on the tree for %d", at, tr.Dst)
		}
		// Bottom-first: the i-th tree's label sits at depth len-1-i.
		stack[len(trees)-1-i] = l
		at = tr.Dst
	}
	return stack, nil
}

// SendMergedVia injects a packet at src that follows the concatenation
// of merged trees (restoration by path concatenation over merged LSPs).
func (n *Network) SendMergedVia(src graph.NodeID, trees []*DestTree) (*Packet, error) {
	stack, err := MergedConcatStack(src, trees)
	if err != nil {
		return nil, err
	}
	pkt := &Packet{
		Src: src, Dst: trees[len(trees)-1].Dst,
		Stack: stack,
		At:    src,
		TTL:   DefaultTTL,
		Trace: []graph.NodeID{src},
	}
	return pkt, n.Forward(pkt, nil, nil)
}
