// Package rbpc provisions the paper's deployment on the simulated MPLS
// forwarding plane: the static base set of LSPs (Section 4.1), established
// once, each pair's primary LSP, and the pristine FEC rows that push it.
// Restoration is the online engine's (internal/engine), served from an
// export of the provision (Export): the source-router scheme's FEC
// rewrites, local RBPC's single ILM-row replacement in both variants
// (end-route and edge-bypass, engine.SchemeLocal and engine.SchemeBypass),
// and the hybrid that runs the second and then the first as the link-state
// flood arrives. A process that only solves restorations and names their
// LSPs builds the provision's write side instead (WriteProvision): the same
// base set and LSP identities, and no forwarding plane. The package also
// keeps the conventional teardown-and-re-signal baseline RBPC is measured
// against (Baseline).
package rbpc

import (
	"fmt"
	"strconv"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/par"
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
	// set: base paths, primaries and FEC entries are installed only for
	// pairs whose source is listed, turning the O(n²) all-pairs sweep into
	// O(|Sources|·n). Pairs from unlisted sources have no precomputed
	// state — Corollary 4 guarantees they can still be answered on demand
	// from the base set (with EdgeLSPs the base stays edge-complete, so
	// optimal-cost answers always exist). This is what makes full-scale
	// topologies provisionable; the sharded serving layer's cold-pair path
	// consumes it. Nil provisions every source.
	Sources []graph.NodeID
}

// DefaultConfig enables both closures: full pre-provisioning, zero
// signaling at failure time.
func DefaultConfig() Config {
	return Config{SubpathClosure: true, EdgeLSPs: true}
}

// System is a provisioned RBPC deployment: the MPLS network with the base
// set's LSPs established and every provisioned pair's FEC row pushing its
// primary, the base set's path for the pair (Provision.Primary). Nothing
// writes it after NewSystem.
type System struct {
	g    *graph.Graph
	net  *mpls.Network
	base *paths.Explicit

	lspOf map[string]*mpls.LSP // base-path key -> provisioned LSP
	// baseLSPs[i] is the LSP of base.All()[i]: a base path's position is
	// its LSP's too (Export).
	baseLSPs []*mpls.LSP
	serves   []bool // by NodeID: the source's pairs have primaries and FEC rows
}

// NewSystem provisions a full RBPC deployment over g: canonical per-pair
// shortest-path LSPs (plus configured closures) and initial FEC entries at
// every router for every destination.
//
// It provisions in flat passes, with no allocation per path: the base set
// is read off each source's shortest-path tree (paths.FromSources), the
// LSPs are established as one batch sharing the stored paths, the
// registry's keys (Provision.LSPs, each path's Path.Key) are windows of one
// string, and a primary's FEC row is a slot naming its LSP
// (mpls.Network.InstallFEC).
//
// It uses every core: the walk and the batch fan out over GOMAXPROCS, the
// keys are cut and the base set's ArcIndex (which every engine over the
// export reads) is built while the batch runs, and the key map is built
// while the FEC rows go in. Each pass reads only the base set or the
// batch's LSPs, and the result is the same at any GOMAXPROCS.
func NewSystem(g *graph.Graph, cfg Config) (*System, error) {
	base, serves, err := buildBase(g, cfg)
	if err != nil {
		return nil, err
	}
	s := &System{g: g, net: mpls.NewNetwork(g), base: base, serves: serves}

	stored := base.All()
	var (
		lsps    []*mpls.LSP
		keys    string
		ends    []int
		primary []bool
	)
	par.Do(3, func(i int) {
		switch i {
		case 0:
			// One LSP per base path, in base order, sharing the stored path.
			lsps, err = s.net.EstablishLSPs(stored)
		case 1:
			keys, ends = cutKeys(g, stored)
		case 2:
			base.ArcIndex()
			// A served pair's primary is its first stored path
			// (Provision.Primary).
			primary = Provision{Base: base, Serves: serves}.PrimaryMask()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("rbpc: provisioning base LSP %v: %w", stored[len(lsps)], err)
	}
	s.baseLSPs = lsps

	par.Do(2, func(i int) {
		if i == 1 {
			s.lspOf = make(map[string]*mpls.LSP, len(lsps))
			for j, at := 0, 0; j < len(stored); j++ {
				s.lspOf[keys[at:ends[j]]] = lsps[j]
				at = ends[j]
			}
			return
		}
		// FEC rows pushing the primaries, hot sources only: each a slot
		// naming the primary's LSP.
		for j, p := range stored {
			if primary[j] && err == nil {
				err = s.net.InstallFEC(p.Dst(), lsps[j])
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("rbpc: installing the FEC rows: %w", err)
	}
	return s, nil
}

// cutKeys returns the registry's keys, each path's Path.Key, as one string
// and the end of each path's key in it. Every node and link ID of g has at
// most digits digits, so a path's key is at most its hops plus two IDs,
// each with a separator, and the buffer never grows.
func cutKeys(g *graph.Graph, stored []graph.Path) (string, []int) {
	digits := len(strconv.Itoa(max(g.Order(), g.Size())))
	size := 0
	for _, p := range stored {
		size += (len(p.Edges) + 2) * (digits + 1)
	}
	buf := make([]byte, 0, size)
	ends := make([]int, len(stored))
	for i, p := range stored {
		buf = p.AppendKey(buf)
		ends[i] = len(buf)
	}
	return string(buf), ends
}

// WriteProvision provisions the write side of NewSystem(g, cfg).Export():
// the same graph, base set and served sources, and the base set's LSPs as
// records (mpls.Records) numbered as NewSystem establishes them. It has no
// forwarding plane — no network, labels, ILM or FEC rows (Net is nil) — and
// no key registry (LSPs is nil). It is what a process that only solves
// restorations and names their LSPs builds: an engine over it serves every
// scheme and forwards nothing.
func WriteProvision(g *graph.Graph, cfg Config) (Provision, error) {
	base, serves, err := buildBase(g, cfg)
	if err != nil {
		return Provision{}, err
	}
	return Provision{Graph: g, Base: base, BaseLSPs: mpls.Records(base.All()), Serves: serves}, nil
}

// buildBase builds the base set cfg provisions over g, in the order its
// LSPs are numbered, and marks the sources it serves: the one builder of
// NewSystem and WriteProvision. A hot source that is not a node of g, or
// is listed twice, is refused.
func buildBase(g *graph.Graph, cfg Config) (*paths.Explicit, []bool, error) {
	n := g.Order()
	serves := make([]bool, n)
	sources := cfg.Sources
	for _, src := range sources {
		if src < 0 || int(src) >= n {
			return nil, nil, fmt.Errorf("rbpc: hot source %d is not a node of the %d-node graph", src, n)
		}
		if serves[src] {
			return nil, nil, fmt.Errorf("rbpc: hot source %d is listed twice", src)
		}
		serves[src] = true
	}
	if sources == nil {
		sources = make([]graph.NodeID, n)
		for i := range sources {
			sources[i] = graph.NodeID(i)
			serves[i] = true
		}
	}
	base := paths.FromSources(walkBase(g), sources)
	if cfg.SubpathClosure {
		base = paths.SubpathClosure(base)
	}
	if cfg.EdgeLSPs {
		for _, e := range g.Edges() {
			base.Add(paths.EdgePath(g, e.ID, e.U))
			base.Add(paths.EdgePath(g, e.ID, e.V))
		}
	}
	return base, serves, nil
}

// walkBase is the all-shortest set FromSources reads the base set off, on
// an oracle that keeps one tree: the walk reads each source's tree once, so
// memoizing them all would hold n trees live until it ends.
func walkBase(g *graph.Graph) *paths.AllShortest {
	o := spath.NewOracle(g)
	o.SetCap(1)
	return paths.NewAllShortestOracle(o)
}

// Net returns the underlying MPLS network.
func (s *System) Net() *mpls.Network { return s.net }

// Graph returns the topology.
func (s *System) Graph() *graph.Graph { return s.g }

// Base returns the provisioned base set.
func (s *System) Base() *paths.Explicit { return s.base }
