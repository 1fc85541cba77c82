package mpls

import (
	"cmp"
	"fmt"
	"slices"

	"rbpc/internal/graph"
)

// ILMPatch is one patched ILM row: the row for Label at Router reads Entry.
type ILMPatch struct {
	Router graph.NodeID
	Label  Label
	Entry  ILMEntry
}

// ILMOverlay is the set of ILM rows one failure state patches — local RBPC's
// single-table-entry action at each router adjacent to a failure, for every
// LSP crossing every down link — held beside the network instead of written
// into it: Forward and ILMRow consult the overlay before a router's own
// table, so the network's tables stay the provision's and any number of
// overlays, one per epoch, forward over it at once. The nil overlay patches
// nothing.
//
// Rows are grouped by router and label-sorted within a router: a router
// without a patch — almost every hop of almost every packet — costs one
// comparison of two offsets.
//
//rbpc:immutable
type ILMOverlay struct {
	start []int32 // by router: rows[start[r]:start[r+1]] are r's
	rows  []ILMPatch
}

// NewILMOverlay freezes want into the overlay over n's tables. Entries and
// the label slices they point to are copied, so want may live in scratch the
// caller reuses; when want names a row twice the first entry wins. A wanted
// row n has no row for is an error — a patch only ever replaces live
// forwarding state (ReplaceILM's rule). An empty want is the nil overlay.
//
//rbpc:ctor
func NewILMOverlay(n *Network, want []ILMPatch) (*ILMOverlay, error) {
	if len(want) == 0 {
		return nil, nil
	}
	rows := slices.Clone(want)
	slices.SortStableFunc(rows, func(a, b ILMPatch) int {
		return cmp.Or(cmp.Compare(a.Router, b.Router), cmp.Compare(a.Label, b.Label))
	})
	rows = slices.CompactFunc(rows, func(a, b ILMPatch) bool {
		return a.Router == b.Router && a.Label == b.Label
	})
	o := &ILMOverlay{start: make([]int32, len(n.routers)+1), rows: rows}
	labels := 0
	for i := range rows {
		w := &rows[i]
		if _, ok := n.routers[w.Router].ILMEntryFor(w.Label); !ok {
			return nil, fmt.Errorf("mpls: router %d has no ILM entry for label %d", w.Router, w.Label)
		}
		o.start[w.Router+1]++
		labels += len(w.Entry.Out)
	}
	for r := range n.routers {
		o.start[r+1] += o.start[r]
	}
	out := make([]Label, 0, labels)
	for i := range rows {
		at := len(out)
		out = append(out, rows[i].Entry.Out...)
		rows[i].Entry.Out = out[at:len(out):len(out)]
	}
	return o, nil
}

// Len returns the number of patched rows.
func (o *ILMOverlay) Len() int {
	if o == nil {
		return 0
	}
	return len(o.rows)
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
		if o.rows[mid].Label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && o.rows[lo].Label == l {
		return o.rows[lo].Entry, true
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
