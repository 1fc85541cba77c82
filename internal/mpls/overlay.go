package mpls

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"rbpc/internal/graph"
)

// ILMPatch is local RBPC's single-table-entry action at the router adjacent
// to a failure, named by LSPs (Section 4.2): at Router, the traffic of LSP
// Crossing at its hop Hop — the link out of Crossing.Path.Nodes[Hop], which
// is Router — is carried over the concatenation Splice instead. Under
// end-route Splice ends at Crossing's egress; under edge-bypass (Resume) it
// ends at Path.Nodes[Hop+1], where Crossing resumes beneath it. A patch
// carries no label: NewILMOverlay derives them from the LSPs. Resume sits
// in Router's padding, so a patch is 48 bytes on a 64-bit platform.
type ILMPatch struct {
	Router   graph.NodeID
	Resume   bool
	Crossing *LSP
	Hop      int
	Splice   []*LSP
}

// End returns the router p's splice ends at: Crossing's egress, or under
// Resume its next router.
func (p *ILMPatch) End() graph.NodeID {
	if p.Resume {
		return p.Crossing.Path.Nodes[p.Hop+1]
	}
	return p.Crossing.Egress()
}

// ILMOverlay is the set of patches one failure state applies — for every
// LSP crossing every down link — held beside the network instead of written
// into it: Forward and ILMRow consult the overlay's rows before a router's
// own table, so the network's tables stay the provision's and any number of
// overlays, one per epoch, forward over it at once. The nil overlay patches
// nothing.
//
// Over a network each patch is a label-keyed row, grouped by router and
// label-sorted within a router: a router without a patch — almost every hop
// of almost every packet — costs one comparison of two offsets.
//
//rbpc:immutable
type ILMOverlay struct {
	patches []ILMPatch // by (Router, Crossing.ID, Hop)
	start   []int32    // by router: rows[start[r]:start[r+1]] are r's; nil over no network
	rows    []ilmRow
}

type ilmRow struct {
	label Label
	entry ILMEntry
}

// NewILMOverlay freezes want into the overlay over n's tables: the patches
// are copied, their splices kept (the caller must not modify them), and the
// first of a (Router, Crossing, Hop) named twice wins. A patch is refused,
// naming it, unless Crossing's hop Hop is at Router and Splice chains
// (CheckChain) from Router to End. An empty want is the nil overlay.
//
// Over a network each patch is the row for the label under which Crossing's
// traffic is processed at Router — its self-label at Hop 0, else the label
// of the hop into Router — pushing, bottom-first, Crossing's label on hop
// Hop under Resume, then Splice's self-labels; a patch whose row n lacks is
// refused, as ReplaceILM refuses it. Over no network (n nil) the overlay
// holds the patches alone (Patches) and forwards nothing.
//
//rbpc:ctor
func NewILMOverlay(n *Network, want []ILMPatch) (*ILMOverlay, error) {
	if len(want) == 0 {
		return nil, nil
	}
	labels := 0
	for i := range want {
		if err := checkPatch(&want[i]); err != nil {
			return nil, err
		}
		labels += len(want[i].Splice) + 1
	}
	ps := slices.Clone(want)
	slices.SortStableFunc(ps, func(a, b ILMPatch) int { return comparePatch(&a, &b) })
	o := &ILMOverlay{patches: slices.CompactFunc(ps, func(a, b ILMPatch) bool { return comparePatch(&a, &b) == 0 })}
	if n == nil {
		return o, nil
	}

	o.start, o.rows = make([]int32, len(n.routers)+1), make([]ilmRow, len(o.patches))
	out := make([]Label, 0, labels)
	for i, p := range o.patches {
		c := p.Crossing
		l, ok := c.SelfLabel(), true
		if p.Hop > 0 {
			l, ok = c.HopLabel(p.Hop - 1)
		}
		resume, rok := c.HopLabel(p.Hop)
		if e, has := n.routers[p.Router].ILMEntryFor(l); !ok || !has || e.LSP != c.ID || p.Resume && !rok {
			return nil, fmt.Errorf("mpls: router %d has no ILM row of LSP %d at hop %d to patch", p.Router, c.ID, p.Hop)
		}
		at := len(out)
		if p.Resume {
			out = append(out, resume)
		}
		for j := len(p.Splice) - 1; j >= 0; j-- {
			out = append(out, p.Splice[j].SelfLabel())
		}
		o.rows[i] = ilmRow{label: l, entry: ILMEntry{Out: out[at:len(out):len(out)], OutEdge: LocalProcess}}
		o.start[p.Router+1]++
	}
	// The patches are by router, and a label names one LSP's hop at a
	// router: each router's rows are in place and distinct.
	for r := range n.routers {
		o.start[r+1] += o.start[r]
		slices.SortFunc(o.rows[o.start[r]:o.start[r+1]], func(a, b ilmRow) int { return cmp.Compare(a.label, b.label) })
	}
	return o, nil
}

// checkPatch reports, naming p, why it is not a patch a router could apply.
func checkPatch(p *ILMPatch) error {
	c, err := p.Crossing, error(nil)
	switch {
	case c == nil:
		return fmt.Errorf("mpls: patch at router %d names no crossing LSP", p.Router)
	case p.Hop < 0 || p.Hop >= c.Path.Hops() || c.Path.Nodes[p.Hop] != p.Router:
		err = errors.New("the LSP's hop is not at the router")
	default:
		if err = CheckChain(p.Splice); err == nil && (p.Splice[0].Ingress() != p.Router || p.Splice[len(p.Splice)-1].Egress() != p.End()) {
			err = fmt.Errorf("the splice runs from %d to %d, not from %d to %d", p.Splice[0].Ingress(), p.Splice[len(p.Splice)-1].Egress(), p.Router, p.End())
		}
	}
	if err != nil {
		return fmt.Errorf("mpls: patch at router %d of LSP %d at hop %d: %w", p.Router, c.ID, p.Hop, err)
	}
	return nil
}

func comparePatch(a, b *ILMPatch) int {
	return cmp.Or(cmp.Compare(a.Router, b.Router), cmp.Compare(a.Crossing.ID, b.Crossing.ID), cmp.Compare(a.Hop, b.Hop))
}

// Len returns the number of patches.
func (o *ILMOverlay) Len() int { return len(o.Patches()) }

// Patches returns the overlay's patches, by router, then crossing LSP ID
// and hop. The caller must not modify them.
func (o *ILMOverlay) Patches() []ILMPatch {
	if o == nil {
		return nil
	}
	return o.patches
}

// row returns the overlay's entry for label l at router r, if it has one.
//
//rbpc:hotpath
func (o *ILMOverlay) row(r graph.NodeID, l Label) (ILMEntry, bool) {
	if o == nil {
		return ILMEntry{}, false
	}
	lo, end := int(o.start[r]), int(o.start[r+1])
	for hi := end; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if o.rows[mid].label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && o.rows[lo].label == l {
		return o.rows[lo].entry, true
	}
	return ILMEntry{}, false
}

// ILMRow returns the ILM row for label l at router id as a packet forwarded
// under ov meets it: the overlay's row, else the router's own.
//
//rbpc:hotpath
func (n *Network) ILMRow(id graph.NodeID, l Label, ov *ILMOverlay) (ILMEntry, bool) {
	if e, ok := ov.row(id, l); ok {
		return e, true
	}
	return n.routers[id].ILMEntryFor(l)
}
