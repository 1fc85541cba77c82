package rbpc

import (
	"fmt"
	"math"
	"slices"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
)

// Provision is the export of a System's provisioned state — everything the
// serving layer (internal/engine) needs to restore: the topology, the
// forwarding plane, the base set and LSP registry, and the sources whose
// pairs it serves. A served pair's primary, which is also its pristine
// route, is the base set's path for the pair (Primary).
//
// The export shares the System's values; nothing writes them after
// NewSystem, so any number of engines, cold tiers and decoders may read
// one export concurrently.
//
// BaseLSPs[i] is the LSP established for Base.All()[i]: the table the
// online serving stack resolves a component through, by its base-set index
// (core.Component.Base). LSPs is the same registry keyed by path content.
//
// A write-side provision (WriteProvision) is the same but for the
// forwarding plane: Net and LSPs are nil, and BaseLSPs are records, with
// the IDs and paths of Export's and no labels.
//
// Serves[src] marks the sources whose pairs the provision serves rows for:
// the hot set (Config.Sources, every node when nil), narrowed to one shard's
// sources by its slice (internal/shard.SliceProvision).
type Provision struct {
	Graph    *graph.Graph
	Net      *mpls.Network
	Base     *paths.Explicit
	BaseLSPs []*mpls.LSP
	LSPs     map[string]*mpls.LSP
	Serves   []bool
}

// Export returns the system's provisioned state. See Provision for the
// sharing contract.
func (s *System) Export() Provision {
	return Provision{
		Graph:    s.g,
		Net:      s.net,
		Base:     s.base,
		BaseLSPs: slices.Clip(s.baseLSPs),
		LSPs:     s.lspOf,
		Serves:   slices.Clip(s.serves),
	}
}

// Primary returns the base-set index of the primary of (src, dst): the base
// set's path for the pair (paths.Explicit.IndexBetween) when the provision
// serves src. Its LSP is BaseLSPs[idx]. ok is false for a source the
// provision does not serve and for a pair the base set does not join — a
// self-pair, or a disconnected one.
func (p Provision) Primary(src, dst graph.NodeID) (idx int, ok bool) {
	if !p.Serves[src] {
		return 0, false
	}
	return p.Base.IndexBetween(src, dst)
}

// PrimaryMask marks, by base-set index, the paths that are the primary of
// a pair the provision serves: the first stored path of each pair
// (paths.Explicit.PairHeads) whose source it serves.
func (p Provision) PrimaryMask() []bool {
	mask := p.Base.PairHeads()
	for i, path := range p.Base.All() {
		mask[i] = mask[i] && p.Serves[path.Src()]
	}
	return mask
}

// AffectedPairs returns, (src, dst)-sorted, the pairs whose primary crosses
// link ed — the pairs a failure of ed interrupts: the base paths through ed
// (paths.Explicit.IndicesThroughEdge) that primary marks (PrimaryMask).
// Each call returns a fresh slice.
func AffectedPairs(base *paths.Explicit, primary []bool, ed graph.EdgeID) []graph.NodePair {
	var out []graph.NodePair
	all := base.All()
	for _, idx := range base.IndicesThroughEdge(ed) {
		if primary[idx] {
			out = append(out, graph.NodePair{Src: all[idx].Src(), Dst: all[idx].Dst()})
		}
	}
	SortPairs(out)
	return out
}

// SortPairs sorts pairs into (src, dst) order, in one linear pass when they
// already are — as a link's affected pairs are in a base set built source
// by source; a subpath closure's are not.
func SortPairs(prs []graph.NodePair) {
	if !slices.IsSortedFunc(prs, graph.NodePair.Compare) {
		slices.SortFunc(prs, graph.NodePair.Compare)
	}
}

// Servable checks the preconditions of the online serving stack
// (internal/engine, internal/shard, internal/shardrpc). A 1-hop base path
// over every link in both directions, and an LSP for every base path: then
// every component of every restoration is a provisioned base path —
// Theorem 2's k edges are 1-hop LSPs like any other, and a bare-edge offer
// loses the solver's first-offer tie to its same-cost base path — and the
// stack reads a component's LSP from BaseLSPs and never signals one. And
// link weights whose every path sum is exact in a float64 — positive
// integers totalling at most 2^53: the stack solves one restoration two
// ways, reading it off the distance row (core.Pull: the hot rows and the cold
// tier) and by the base-path Dijkstra (the FullRebuild reference), and they
// agree route for route only where equal costs compare equal however they
// were summed. core.DecomposeSparse serves any weights.
func (p Provision) Servable() error {
	const need = "online serving needs rbpc.Config.EdgeLSPs and every base path established"
	if !p.Base.EdgeComplete() {
		return fmt.Errorf("rbpc: the base set has no 1-hop path over some link: %s", need)
	}
	if len(p.BaseLSPs) != p.Base.Len() || slices.Contains(p.BaseLSPs, nil) {
		return fmt.Errorf("rbpc: some of the %d base paths have no LSP: %s", p.Base.Len(), need)
	}
	const exact = "online serving needs link weights that sum exactly (positive integers, at most 2^53 in total)"
	var total float64
	for _, e := range p.Graph.Edges() {
		if e.W != math.Trunc(e.W) { // a graph's weights are positive and finite
			return fmt.Errorf("rbpc: link %d (%d-%d) has weight %v: %s", e.ID, e.U, e.V, e.W, exact)
		}
		total += e.W
	}
	if total > 1<<53 {
		return fmt.Errorf("rbpc: the link weights total %v: %s", total, exact)
	}
	return nil
}
