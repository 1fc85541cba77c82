package engine

import (
	"sort"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
)

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

// mergePlanRow produces the successor overlay row for one source from the
// previous epoch's row and the transition's changed span (same source,
// dst-sorted): changed pairs covered by the plan take the plan's route,
// changed pairs the plan dropped revert to canonical (removed from the
// overlay), and unchanged overlay entries carry over. A two-pointer merge
// over two sorted sequences; the inputs are never mutated.
func mergePlanRow(prev *planRow, span []rbpc.Pair, pl *plan) *planRow {
	var pd []graph.NodeID
	var prt []*Route
	if prev != nil {
		pd, prt = prev.dsts, prev.routes
	}
	dsts := make([]graph.NodeID, 0, len(pd)+len(span))
	routes := make([]*Route, 0, len(pd)+len(span))
	i, j := 0, 0
	for i < len(pd) || j < len(span) {
		var takeChanged bool
		switch {
		case i >= len(pd):
			takeChanged = true
		case j >= len(span):
			takeChanged = false
		case span[j].Dst < pd[i]:
			takeChanged = true
		case span[j].Dst > pd[i]:
			takeChanged = false
		default: // same destination: the change supersedes the old entry
			i++
			takeChanged = true
		}
		if takeChanged {
			pr := span[j]
			j++
			if rt, covered := pl.routes[pr]; covered {
				dsts = append(dsts, pr.Dst)
				routes = append(routes, rt)
			}
			// Not covered: the pair reverts to canonical — no entry.
		} else {
			dsts = append(dsts, pd[i])
			routes = append(routes, prt[i])
			i++
		}
	}
	return newPlanRow(dsts, routes)
}

// buildOverlayRows materializes a full overlay from a plan: one row per
// source holding every plan entry, sorted by destination. Used on the
// full-apply path (cache hits, fault paths), where the plan is the
// complete divergence from canonical by construction. An empty plan
// yields the nil overlay.
func buildOverlayRows(n int, pl *plan) []*planRow {
	if len(pl.routes) == 0 {
		return nil
	}
	byDst := make(map[graph.NodeID][]rbpc.Pair)
	for pr := range pl.routes {
		byDst[pr.Src] = append(byDst[pr.Src], pr)
	}
	over := make([]*planRow, n)
	for s, prs := range byDst {
		sort.Slice(prs, func(i, j int) bool { return prs[i].Dst < prs[j].Dst })
		dsts := make([]graph.NodeID, len(prs))
		routes := make([]*Route, len(prs))
		for i, pr := range prs {
			dsts[i] = pr.Dst
			routes[i] = pl.routes[pr]
		}
		over[s] = newPlanRow(dsts, routes)
	}
	return over
}

// assembleOverlay builds the next epoch's overlay. The delta path carries
// the previous epoch's rows forward and merges only the sources the
// transition's changed span touches; the full path (cache hits, reference
// mode, fault paths) rebuilds the overlay wholesale from the plan, which
// is the complete divergence from canonical by construction. Both rewrite
// the FEC entries of the pairs they touch on the epoch's cloned net. An
// overlay in which no source diverges is returned as nil, so a snapshot
// at rest holds the canonical matrix and nothing else.
func (e *Engine) assembleOverlay(prev *Snapshot, pl *plan, changed []rbpc.Pair, delta bool, net *mpls.Network) []*planRow {
	if delta {
		over := make([]*planRow, len(e.canonical))
		copy(over, prev.over)
		for lo := 0; lo < len(changed); {
			hi := lo + 1
			for hi < len(changed) && changed[hi].Src == changed[lo].Src {
				hi++
			}
			src := changed[lo].Src
			over[src] = mergePlanRow(over[src], changed[lo:hi], pl)
			for _, pr := range changed[lo:hi] {
				if _, covered := pl.routes[pr]; !covered && e.cfg.Fault == FaultSkipFECRewrite {
					continue // injected defect: leaving pairs keep stale labels
				}
				e.writeOverlayFEC(net, over, pr)
			}
			lo = hi
		}
		for _, row := range over {
			if row != nil {
				return over
			}
		}
		return nil
	}
	over := buildOverlayRows(len(e.canonical), pl)
	for pr := range pl.routes {
		e.writeOverlayFEC(net, over, pr)
	}
	if e.cfg.Fault != FaultSkipFECRewrite {
		for pr := range e.prevPlan.routes {
			if _, covered := pl.routes[pr]; !covered {
				e.writeOverlayFEC(net, over, pr)
			}
		}
	}
	return over
}

// overlayRoute reads a pair's route through a not-yet-published overlay:
// overlay first, canonical fallback — the writer-side twin of
// Snapshot.Route.
func (e *Engine) overlayRoute(over []*planRow, src, dst graph.NodeID) *Route {
	if int(src) < len(over) {
		if row := over[src]; row != nil {
			if rt, ok := row.get(dst); ok {
				return rt
			}
		}
	}
	if c := e.canonical[src]; c != nil {
		return c[dst]
	}
	return nil
}

// writeOverlayFEC syncs one pair's forwarding entry with the overlay.
func (e *Engine) writeOverlayFEC(net *mpls.Network, over []*planRow, pr rbpc.Pair) {
	if rt := e.overlayRoute(over, pr.Src, pr.Dst); rt != nil {
		net.SetFEC(pr.Src, pr.Dst, mpls.FECEntry{Stack: rt.Stack, OutEdge: mpls.LocalProcess})
	} else {
		net.ClearFEC(pr.Src, pr.Dst)
	}
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
