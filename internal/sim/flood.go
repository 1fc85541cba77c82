package sim

import "rbpc/internal/graph"

// FloodHops models link-state flood propagation after the failure of one
// link: the two failure-adjacent routers originate the LSA at hop 0, and
// every router that hears it re-floods to its neighbours over the
// surviving links (the failed link itself carries no announcement, and
// neither does any other link the view marks down). hops[r] is the number
// of link transmissions before router r first hears the announcement;
// -1 means the failure left r partitioned from both endpoints, so r never
// learns of it.
//
// v must be the failure view of the topology with the failed link (and
// any other concurrently-down links) removed; e is the failed link's edge
// record in the underlying graph. The BFS visits arcs in adjacency order,
// so the result is a pure function of (v, e).
//
//rbpc:deterministic
func FloodHops(v graph.View, e graph.Edge) []int {
	n := v.Order()
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	queue := make([]graph.NodeID, 0, n)
	reach := func(u graph.NodeID, d int) {
		if int(u) < n && hops[u] == -1 {
			hops[u] = d
			queue = append(queue, u)
		}
	}
	reach(e.U, 0)
	reach(e.V, 0)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		v.VisitArcs(u, func(a graph.Arc) bool {
			reach(a.To, hops[u]+1)
			return true
		})
	}
	return hops
}
