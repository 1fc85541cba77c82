// Package rbpc implements the paper's restoration schemes end to end on
// the simulated MPLS forwarding plane:
//
//   - Source-router RBPC (Section 4.1): a static base set of LSPs is
//     provisioned once; a link failure triggers only FEC-table rewrites at
//     source routers, swapping each broken route for a concatenation of
//     surviving base LSPs via the label stack. No ILM table changes, no
//     signaling.
//   - Local RBPC (Section 4.2), in both variants: end-route (the router
//     adjacent to the failure redirects the LSP's remainder to its
//     destination) and edge-bypass (it routes around the failed link and
//     the original LSP resumes). Each is a single ILM-row replacement at
//     the adjacent router.
//   - The hybrid scheme: edge-bypass the moment an endpoint detects the
//     failure, superseded by optimal source-router restoration as the
//     link-state flood reaches each source.
package rbpc

import (
	"fmt"
	"sort"

	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// Pair is an ordered source-destination pair.
type Pair struct {
	Src, Dst graph.NodeID
}

// Config controls what gets pre-provisioned.
type Config struct {
	// SubpathClosure provisions every contiguous subpath of every
	// canonical base path as its own LSP, per Section 4.1 ("all subpaths
	// of this shortest path"). Quadratic in path length; intended for
	// ISP-scale networks.
	SubpathClosure bool
	// EdgeLSPs provisions a 1-hop LSP over every link in both directions,
	// so that the "k edges" of Theorem 2 are themselves pre-provisioned
	// and multi-failure restoration stays signaling-free.
	EdgeLSPs bool
	// Sources, when non-nil, restricts per-pair provisioning to the hot
	// set: base paths, primaries, routes, and FEC entries are installed
	// only for pairs whose source is listed, turning the O(n²) all-pairs
	// sweep into O(|Sources|·n). Pairs from unlisted sources have no
	// precomputed state — Corollary 4 guarantees they can still be
	// answered on demand from the base set (with EdgeLSPs the base stays
	// edge-complete, so optimal-cost answers always exist). This is what
	// makes full-scale topologies provisionable; the sharded serving
	// layer's cold-pair path consumes it. Nil provisions every source.
	Sources []graph.NodeID
}

// DefaultConfig enables both closures: full pre-provisioning, zero
// signaling at failure time.
func DefaultConfig() Config {
	return Config{SubpathClosure: true, EdgeLSPs: true}
}

// System is a running RBPC deployment: the MPLS network, the provisioned
// base set, the current route (LSP concatenation) per ordered pair, and
// the control-plane failure knowledge.
type System struct {
	g      *graph.Graph
	net    *mpls.Network
	cfg    Config
	oracle *spath.Oracle
	base   *paths.Explicit

	lspOf map[string]*mpls.LSP // base-path key -> provisioned LSP
	// baseLSPs[i] is the LSP of base.All()[i]: appended in lockstep with
	// base.Add, so a base path's position is its LSP's too (Export).
	baseLSPs  []*mpls.LSP
	primaries map[Pair]*mpls.LSP
	routes    map[Pair][]*mpls.LSP

	failed map[graph.EdgeID]bool

	patches map[graph.EdgeID][]patch

	// failoverPlans holds precomputed single-link FEC update sets (see
	// PrecomputeFailoverPlans); nil until precomputed.
	failoverPlans map[graph.EdgeID]*FailoverPlan

	// onDemandLSPs counts LSPs that had to be signaled at restoration
	// time because the needed component was not pre-provisioned.
	onDemandLSPs int
}

type patch struct {
	router graph.NodeID
	label  mpls.Label
	prev   mpls.ILMEntry
}

// NewSystem provisions a full RBPC deployment over g: canonical per-pair
// shortest-path LSPs (plus configured closures) and initial FEC entries at
// every router for every destination.
func NewSystem(g *graph.Graph, cfg Config) (*System, error) {
	s := &System{
		g:         g,
		net:       mpls.NewNetwork(g),
		cfg:       cfg,
		oracle:    spath.NewOracle(g),
		lspOf:     make(map[string]*mpls.LSP),
		primaries: make(map[Pair]*mpls.LSP),
		routes:    make(map[Pair][]*mpls.LSP),
		failed:    make(map[graph.EdgeID]bool),
		patches:   make(map[graph.EdgeID][]patch),
	}

	all := paths.NewAllShortest(g)
	n := g.Order()
	sources := cfg.Sources
	if sources == nil {
		sources = make([]graph.NodeID, n)
		for i := range sources {
			sources[i] = graph.NodeID(i)
		}
	}
	base := paths.FromSources(all, sources)
	if cfg.SubpathClosure {
		base = paths.SubpathClosure(base)
	}
	if cfg.EdgeLSPs {
		for _, e := range g.Edges() {
			base.Add(paths.EdgePath(g, e.ID, e.U))
			base.Add(paths.EdgePath(g, e.ID, e.V))
		}
	}
	s.base = base

	for _, p := range base.All() {
		lsp, err := s.net.EstablishLSP(p)
		if err != nil {
			return nil, fmt.Errorf("rbpc: provisioning base LSP %v: %w", p, err)
		}
		s.lspOf[p.Key()] = lsp
		s.baseLSPs = append(s.baseLSPs, lsp)
	}

	// Primary routes and FEC entries, hot sources only.
	for _, src := range sources {
		for di := 0; di < n; di++ {
			if graph.NodeID(di) == src {
				continue
			}
			pr := Pair{src, graph.NodeID(di)}
			p, ok := base.Between(pr.Src, pr.Dst)
			if !ok {
				continue // disconnected pair
			}
			lsp := s.lspOf[p.Key()]
			s.primaries[pr] = lsp
			s.installRoute(pr, []*mpls.LSP{lsp})
		}
	}
	return s, nil
}

// Net returns the underlying MPLS network.
func (s *System) Net() *mpls.Network { return s.net }

// Graph returns the topology.
func (s *System) Graph() *graph.Graph { return s.g }

// Base returns the provisioned base set.
func (s *System) Base() *paths.Explicit { return s.base }

// OnDemandLSPs reports how many LSPs had to be signaled at restoration
// time (zero when the configuration pre-provisions enough).
func (s *System) OnDemandLSPs() int { return s.onDemandLSPs }

// KnownFailed returns the links the control plane currently believes are
// down, sorted.
func (s *System) KnownFailed() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(s.failed))
	for e := range s.failed {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RouteOf returns the current LSP concatenation serving the pair, or nil
// if the pair is currently unroutable.
func (s *System) RouteOf(src, dst graph.NodeID) []*mpls.LSP {
	return s.routes[Pair{src, dst}]
}

// PairsThrough returns the ordered pairs whose current route traverses e,
// sorted for determinism.
func (s *System) PairsThrough(e graph.EdgeID) []Pair {
	var out []Pair
	for pr, lsps := range s.routes {
		for _, l := range lsps {
			if l.Path.HasEdge(e) {
				out = append(out, pr)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// installRoute records the concatenation and writes the source's FEC row.
func (s *System) installRoute(pr Pair, lsps []*mpls.LSP) {
	stack, err := mpls.SelfStack(lsps)
	if err != nil {
		// Cannot happen: routes are built from chained components.
		panic(fmt.Sprintf("rbpc: broken concatenation for %v: %v", pr, err))
	}
	s.routes[pr] = lsps
	s.net.SetFEC(pr.Src, pr.Dst, mpls.FECEntry{Stack: stack, OutEdge: mpls.LocalProcess})
}

// FailLink is the instant-knowledge convenience: the link goes down in the
// data plane and every source reacts immediately. The hybrid controller
// separates these steps to model propagation timing.
func (s *System) FailLink(e graph.EdgeID) {
	s.FailDataPlane(e)
	s.NoteFailure(e)
	s.UpdateAllSources(e)
}

// RepairLink reverses FailLink.
func (s *System) RepairLink(e graph.EdgeID) {
	s.net.RepairEdge(e)
	s.NoteRepair(e)
	s.revertAllSources()
	s.UndoLocalPatches(e)
}

// FailRouter models a whole-router failure as the failure of all its
// incident links (the equivalence the paper uses: "a node failure is
// equivalent to a failure of all incident edges"). All of them go down in
// the data plane, the control plane notes them, and every source whose
// route crossed any of them re-routes. The downed links are returned for
// RepairRouter.
func (s *System) FailRouter(r graph.NodeID) []graph.EdgeID {
	var links []graph.EdgeID
	s.g.VisitArcs(r, func(a graph.Arc) bool {
		links = append(links, a.Edge)
		return true
	})
	for _, e := range links {
		s.FailDataPlane(e)
		s.NoteFailure(e)
	}
	for _, e := range links {
		s.UpdateAllSources(e)
	}
	return links
}

// RepairRouter reverses FailRouter given the links it returned.
func (s *System) RepairRouter(links []graph.EdgeID) {
	for _, e := range links {
		s.net.RepairEdge(e)
		s.NoteRepair(e)
	}
	s.revertAllSources()
}

// FailDataPlane takes the link down physically, before any router reacts.
func (s *System) FailDataPlane(e graph.EdgeID) { s.net.FailEdge(e) }

// NoteFailure records control-plane knowledge that e is down, without
// updating any tables yet.
func (s *System) NoteFailure(e graph.EdgeID) { s.failed[e] = true }

// NoteRepair records control-plane knowledge that e is back up.
func (s *System) NoteRepair(e graph.EdgeID) { delete(s.failed, e) }

// UpdateAllSources recomputes the FEC entry of every pair whose current
// route crosses e. It returns the number of pairs rewritten and the number
// left unroutable (disconnected by the failures).
func (s *System) UpdateAllSources(e graph.EdgeID) (updated, unroutable int) {
	for _, pr := range s.PairsThrough(e) {
		if s.UpdatePair(pr.Src, pr.Dst) {
			updated++
		} else {
			unroutable++
		}
	}
	return updated, unroutable
}

// UpdatePair recomputes the route for one ordered pair against the
// currently known failures — the per-source action of source-router RBPC.
// It reports whether the pair is routable.
func (s *System) UpdatePair(src, dst graph.NodeID) bool {
	pr := Pair{src, dst}
	fv := graph.FailEdges(s.g, s.KnownFailed()...)

	// Prefer the primary whenever it survives.
	if primary, ok := s.primaries[pr]; ok && paths.Survives(primary.Path, fv) {
		s.installRoute(pr, []*mpls.LSP{primary})
		return true
	}
	dec, ok := core.DecomposeSparse(s.base, fv, src, dst)
	if !ok || len(dec.Components) == 0 {
		delete(s.routes, pr)
		s.net.ClearFEC(src, dst)
		return false
	}
	lsps, err := s.lspsFor(dec)
	if err != nil {
		delete(s.routes, pr)
		s.net.ClearFEC(src, dst)
		return false
	}
	s.installRoute(pr, lsps)
	return true
}

// revertAllSources re-evaluates every non-primary route (after a repair,
// primaries may be usable again) and every unroutable pair.
func (s *System) revertAllSources() {
	for pr, primary := range s.primaries {
		cur, routed := s.routes[pr]
		onPrimary := routed && len(cur) == 1 && cur[0] == primary
		if !onPrimary {
			s.UpdatePair(pr.Src, pr.Dst)
		}
	}
}

// lspsFor maps decomposition components to provisioned LSPs via a
// Resolver over the system's own network and registry.
func (s *System) lspsFor(dec core.Decomposition) ([]*mpls.LSP, error) {
	r := Resolver{Net: s.net, LSPs: s.lspOf}
	lsps, err := r.Resolve(dec)
	s.onDemandLSPs += r.OnDemand
	return lsps, err
}
