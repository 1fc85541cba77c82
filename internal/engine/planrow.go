package engine

import "rbpc/internal/graph"

// planRow is the delta-encoded serving row of one source: the sorted set
// of destinations whose route currently diverges from the canonical
// matrix, parallel-arrayed with the overriding routes (nil = the pair is
// unroutable in this epoch even though canonical has a row). Destinations
// absent from the row ride their canonical entries untouched, so a row
// costs memory proportional to its divergence — the splice points — not
// to the topology order. Rows are immutable once built and shared across
// epochs for sources a transition does not touch.
//
// mask is a one-word miss filter: bit dst&63 is set for every entry.
// Under a few failures many sources own a short row, and almost every
// query of such a source is for a destination the row does not hold; the
// mask answers those without the search (measured in DESIGN.md §9).
//
//rbpc:immutable
type planRow struct {
	dsts   []graph.NodeID
	routes []*Route
	mask   uint64
}

// get returns the override for d and whether one exists. Hand-rolled
// binary search: sort.Search takes a closure, and this runs on the query
// path where the row is typically a handful of entries.
//
//rbpc:hotpath
func (r *planRow) get(d graph.NodeID) (*Route, bool) {
	if r.mask&(1<<(uint(d)&63)) == 0 {
		return nil, false
	}
	lo, hi := 0, len(r.dsts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.dsts[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.dsts) && r.dsts[lo] == d {
		return r.routes[lo], true
	}
	return nil, false
}

// planRowEntryBytes is the accounting cost of one overlay entry: the
// NodeID plus the route pointer (padding included).
const planRowEntryBytes = 16

// newPlanRow wraps pre-sorted parallel slices; nil when empty (the
// overlay convention for "no divergence").
//
//rbpc:ctor
func newPlanRow(dsts []graph.NodeID, routes []*Route) *planRow {
	if len(dsts) == 0 {
		return nil
	}
	var mask uint64
	for _, d := range dsts {
		mask |= 1 << (uint(d) & 63)
	}
	return &planRow{dsts: dsts, routes: routes, mask: mask}
}

// entries returns the row's parallel arrays; a nil row has none.
func (r *planRow) entries() ([]graph.NodeID, []*Route) {
	if r == nil {
		return nil, nil
	}
	return r.dsts, r.routes
}

// rowAt is src's row in a per-source row slice — a plan's rows, a
// snapshot's overlay — and nil where the slice is: the nil plan has no rows.
//
//rbpc:hotpath
func rowAt(rows []*planRow, src int) *planRow {
	if src >= len(rows) {
		return nil
	}
	return rows[src]
}

// rowsGet reads a pair's entry through a per-source row slice and reports
// whether there is one.
//
//rbpc:hotpath
func rowsGet(rows []*planRow, src, dst graph.NodeID) (*Route, bool) {
	if r := rowAt(rows, int(src)); r != nil {
		return r.get(dst)
	}
	return nil, false
}

// overlayBytes is the resident-byte accounting of one snapshot's overlay:
// the top-level slice plus every entry of every row (zero for the nil
// overlay). Rows shared with previous epochs are charged in full — the
// figure answers "what does holding this snapshot keep alive".
func overlayBytes(over []*planRow) int64 {
	b := int64(len(over)) * 8
	for _, r := range over {
		if r != nil {
			b += int64(len(r.dsts)) * planRowEntryBytes
		}
	}
	return b
}
