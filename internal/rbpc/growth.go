package rbpc

import (
	"fmt"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
)

// Topology growth. The paper frames RBPC as making rigid MPLS "a
// flexible and fault-tolerant set of routes that can withstand
// topological changes and failures" — failures are handled by
// restoration; this file handles the other direction: a new link coming
// into service. The base set is extended (never rebuilt: established
// LSPs and their labels are untouched), primaries that the new link
// improves are re-provisioned, and affected FEC entries move over.

// AddLink brings a new link into service: it is added to the topology
// and the data plane, provisioned per the configuration (1-hop LSPs,
// improved canonical paths plus their subpaths), and every pair whose
// shortest path improves is switched to a new primary.
//
// Precomputed failover plans are invalidated (they reference the old
// topology); call PrecomputeFailoverPlans again if needed.
func (s *System) AddLink(u, v graph.NodeID, w float64) (graph.EdgeID, error) {
	id := s.g.AddEdge(u, v, w)
	s.net.SyncNewEdges()
	s.failoverPlans = nil

	// The memoized oracle predates the mutation.
	s.oracle = spath.NewOracle(s.g)

	if s.cfg.EdgeLSPs {
		for _, ep := range []graph.Path{paths.EdgePath(s.g, id, u), paths.EdgePath(s.g, id, v)} {
			if err := s.provisionBasePath(ep); err != nil {
				return id, err
			}
		}
	}

	// Re-derive canonical paths; switch improved primaries.
	all := paths.NewAllShortestOracle(s.oracle)
	n := s.g.Order()
	for si := 0; si < n; si++ {
		for di := 0; di < n; di++ {
			if si == di {
				continue
			}
			pr := Pair{graph.NodeID(si), graph.NodeID(di)}
			newPath, ok := all.Between(pr.Src, pr.Dst)
			if !ok || newPath.Hops() == 0 {
				continue
			}
			old, had := s.primaries[pr]
			if had && old.Path.CostIn(s.g) <= newPath.CostIn(s.g) {
				continue // the new link does not improve this pair
			}
			if err := s.provisionBasePath(newPath); err != nil {
				return id, err
			}
			if s.cfg.SubpathClosure {
				h := newPath.Hops()
				for i := 0; i < h; i++ {
					for j := i + 1; j <= h; j++ {
						if err := s.provisionBasePath(newPath.SubPath(i, j)); err != nil {
							return id, err
						}
					}
				}
			}
			s.primaries[pr] = s.lspOf[newPath.Key()]
			// Move the pair over unless failures currently divert it.
			s.UpdatePair(pr.Src, pr.Dst)
		}
	}
	// Pairs currently off their primaries (detoured or unroutable under
	// active failures) may also benefit from the new link: re-evaluate
	// them against the updated topology.
	s.revertAllSources()
	return id, nil
}

// provisionBasePath adds p to the base set and establishes its LSP if it
// is not already provisioned.
func (s *System) provisionBasePath(p graph.Path) error {
	key := p.Key()
	if _, have := s.lspOf[key]; have {
		return nil
	}
	grew := s.base.Add(p)
	lsp, err := s.net.EstablishLSP(p)
	if grew {
		s.baseLSPs = append(s.baseLSPs, lsp) // nil when establishment failed: the position stays the path's
	}
	if err != nil {
		return fmt.Errorf("rbpc: provisioning %v: %w", p, err)
	}
	s.lspOf[key] = lsp
	return nil
}
