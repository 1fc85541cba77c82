// Multifailure: the theory section as a runnable demo. Exercises
// Theorems 1-3 on the paper's own tightness constructions (Figures 2 and
// 3) and on random graphs with k simultaneous failures, printing the
// decompositions.
package main

import (
	"fmt"

	"rbpc"
	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

func main() {
	fmt.Println("=== Theorem 1 tightness (Figure 2: the comb) ===")
	for _, k := range []int{1, 2, 3} {
		gd := topology.Comb(k)
		fv := graph.Fail(gd.G, gd.FailedEdges, nil)
		base := rbpc.AllShortestPaths(gd.G)
		backup, _ := rbpc.ShortestPath(fv, gd.S, gd.T)
		dec := rbpc.DecomposeGreedy(base, backup)
		fmt.Printf("k=%d failures: backup %s\n", k, backup)
		fmt.Printf("      needs exactly %d = k+1 shortest paths: %s\n", dec.Len(), dec)
	}

	fmt.Println("\n=== Theorem 2 tightness (Figure 3: parallel pairs) ===")
	for _, k := range []int{1, 2} {
		gd := topology.WeightedTight(k)
		fv := graph.Fail(gd.G, gd.FailedEdges, nil)
		base := rbpc.AllShortestPaths(gd.G)
		backup, _ := rbpc.ShortestPath(fv, gd.S, gd.T)
		dec := rbpc.DecomposeGreedy(base, backup)
		fmt.Printf("k=%d failures: %d shortest paths + %d bare edges: %s\n",
			k, dec.NumPaths(), dec.NumEdges(), dec)
	}

	fmt.Println("\n=== Theorem 3: one shortest path per pair suffices ===")
	g := rbpc.NewWaxman(14, 0.7, 0.4, 3)
	unique := rbpc.OneShortestPathPerPair(g)
	k := 2
	failed := []rbpc.EdgeID{0, 5}
	fv := rbpc.FailEdges(g, failed...)
	restorer := rbpc.NewRestorer(unique, rbpc.StrategySparse)
	shown := 0
	for d := 1; d < g.Order() && shown < 4; d++ {
		plan, err := restorer.Restore(fv, 0, rbpc.NodeID(d))
		if err != nil {
			continue
		}
		if plan.PCLength() < 2 {
			continue // undamaged pair, boring
		}
		fmt.Printf("restore 0->%d after %d failures: %d components (bound %d): %s\n",
			d, k, plan.PCLength(), 2*k+1, plan.Decomp)
		shown++
	}

	fmt.Println("\n=== Node failure pathology (Figure 4: the hub) ===")
	gd, hub := topology.StarOfPairs(8)
	fvn := graph.FailNodes(gd.G, hub)
	base := rbpc.AllShortestPaths(gd.G)
	backup, _ := rbpc.ShortestPath(fvn, gd.S, gd.T)
	dec := rbpc.DecomposeGreedy(base, backup)
	fmt.Printf("hub failure forces %d components for one router failure (n=%d)\n",
		dec.Len(), gd.G.Order())

	fmt.Println("\n=== Multi-failure restoration on the MPLS plane ===")
	mesh := rbpc.NewComplete(6)
	dep, err := rbpc.NewDeployment(mesh, rbpc.DefaultDeployConfig())
	if err != nil {
		panic(err)
	}
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{Scheme: rbpc.SchemeSource})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	e1, _ := mesh.FindEdge(0, 1)
	e2, _ := mesh.FindEdge(0, 2)
	e3, _ := mesh.FindEdge(1, 2)
	for i, e := range []rbpc.EdgeID{e1, e2, e3} {
		srv.Fail(e)
		srv.Flush()
		snap := srv.Snapshot()
		pkt, err := snap.Send(0, 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("after %d failure(s): 0->1 delivered via %v, %d LSPs concatenated, 0 signaling msgs\n",
			i+1, pkt.Trace, len(snap.Route(0, 1).LSPs))
	}
}
