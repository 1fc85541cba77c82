package rbpc_test

import (
	"fmt"

	"rbpc"
)

// The headline theorem in action: after one failure, the new shortest
// path is a concatenation of at most two original shortest paths.
func ExampleNewRestorer() {
	g := rbpc.NewRing(6)
	e, _ := g.FindEdge(0, 1)

	base := rbpc.AllShortestPaths(g)
	r := rbpc.NewRestorer(base, rbpc.StrategyGreedy)
	plan, err := r.Restore(rbpc.FailEdges(g, e), 0, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", plan.PCLength())
	fmt.Println("backup hops:", plan.Backup.Hops())
	// Output:
	// components: 2
	// backup hops: 5
}

// Source-router RBPC on the MPLS plane: a failure is healed by rewriting
// the source's FEC row alone — it pushes one label per provisioned LSP of
// the concatenation; no ILM row changes and nothing is signaled.
func ExampleNewDeployment() {
	g := rbpc.NewComplete(4)
	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		panic(err)
	}
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{Scheme: rbpc.SchemeSource})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	e, _ := g.FindEdge(0, 1)
	srv.Fail(e)
	srv.Flush()

	snap := srv.Snapshot()
	pkt, err := snap.Send(0, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered in hops:", pkt.Hops)
	fmt.Println("labels pushed at the source:", len(snap.Route(0, 1).LSPs))
	// Output:
	// delivered in hops: 2
	// labels pushed at the source: 2
}

// The exact decomposition machinery on the paper's Figure-2 comb: k
// failures force exactly k+1 components.
func ExampleDecomposeGreedy() {
	g := rbpc.NewGraph(5)
	// Spine 0-1-2 with a tooth over each spine edge.
	s1 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 3, 1) // tooth 3 over (0,1)
	g.AddEdge(3, 1, 1)
	g.AddEdge(1, 4, 1) // tooth 4 over (1,2)
	g.AddEdge(4, 2, 1)

	base := rbpc.AllShortestPaths(g)
	backup, _ := rbpc.ShortestPath(rbpc.FailEdges(g, s1), 0, 2)
	dec := rbpc.DecomposeGreedy(base, backup)
	fmt.Println("k=1 components:", dec.Len())
	// Output:
	// k=1 components: 2
}

// The data-plane audit: every pair of the ring is walked through the
// served epoch's forwarding after a failure — delivered, none looping.
func ExampleServe() {
	g := rbpc.NewRing(5)
	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		panic(err)
	}
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	e, _ := g.FindEdge(0, 1)
	srv.Fail(e)
	srv.Flush()

	snap, delivered := srv.Snapshot(), 0
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			if _, err := snap.Send(rbpc.NodeID(s), rbpc.NodeID(d)); err == nil {
				delivered++
			}
		}
	}
	fmt.Println("pairs delivered:", delivered)
	// Output:
	// pairs delivered: 20
}

// Traffic classes: a gold class confined to fast links restores within
// its own subnet.
func ExampleNewTrafficClasses() {
	g := rbpc.NewRing(6) // fast ring
	g.AddEdge(0, 3, 5)   // slow chord

	classes := rbpc.NewTrafficClasses(g)
	if _, err := classes.AddClass("gold", func(e rbpc.Edge) bool { return e.W == 1 }, rbpc.StrategyGreedy); err != nil {
		panic(err)
	}
	p, _ := classes.Route("gold", 0, 3)
	plan, err := classes.Restore("gold", []rbpc.EdgeID{p.Edges[0]}, 0, 3)
	if err != nil {
		panic(err)
	}
	slow := 0
	for _, e := range plan.Backup.Edges {
		if g.Edge(e).W > 1 {
			slow++
		}
	}
	fmt.Println("slow links used:", slow)
	// Output:
	// slow links used: 0
}
