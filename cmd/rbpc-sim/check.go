package main

import (
	"fmt"

	"rbpc"
	"rbpc/internal/engine"
)

// checkConverged walks every pair through the epoch's data plane
// (Snapshot.Send) and compares it against the reference model: the
// shortest paths of the graph with the failed links removed. Every pair the
// reference says is connected must be delivered, every disconnected one
// dropped, and no delivered walk may cross a failed link — an epoch that
// lost a failure forwards over the dead link rather than dropping the
// packet. Those are reported first; then, on unit-weight topologies, any
// source-router answer (the source and converged hybrid schemes) that is
// longer than the reference's shortest path — local answers detour by
// design. The walk names routers, so a crossing is a step between the two
// endpoints of a failed link, which is exact on a simple graph. It returns
// the first divergence found, nil if the epoch matches the model.
func checkConverged(g *rbpc.Graph, snap *engine.Snapshot, failed ...rbpc.EdgeID) error {
	fv := rbpc.FailEdges(g, failed...)
	dead := make(map[[2]rbpc.NodeID]rbpc.EdgeID, 2*len(failed))
	for _, e := range failed {
		ed := g.Edge(e)
		dead[[2]rbpc.NodeID{ed.U, ed.V}] = e
		dead[[2]rbpc.NodeID{ed.V, ed.U}] = e
	}
	var long error
	n := g.Order()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := rbpc.NodeID(s), rbpc.NodeID(d)
			ref, connected := rbpc.ShortestPath(fv, src, dst)
			pkt, err := snap.Send(src, dst)
			switch {
			case connected && err != nil:
				return fmt.Errorf("pair %d->%d: data plane dropped the packet (%v), reference model reaches it in %d hops",
					s, d, err, ref.Hops())
			case !connected && err == nil:
				return fmt.Errorf("pair %d->%d: data plane delivered in %d hops, reference model says the pair is disconnected",
					s, d, pkt.Hops)
			case err != nil:
				continue
			}
			for i := 1; i < len(pkt.Trace); i++ {
				if e, ok := dead[[2]rbpc.NodeID{pkt.Trace[i-1], pkt.Trace[i]}]; ok {
					return fmt.Errorf("pair %d->%d: delivered via %v over failed link %d", s, d, pkt.Trace, e)
				}
			}
			rt := snap.Route(src, dst)
			if long == nil && g.UnitWeights() && rt != nil && rt.Via == rbpc.SchemeSource && pkt.Hops != ref.Hops() {
				long = fmt.Errorf("pair %d->%d: data plane took %d hops, reference shortest path is %d hops",
					s, d, pkt.Hops, ref.Hops())
			}
		}
	}
	return long
}
