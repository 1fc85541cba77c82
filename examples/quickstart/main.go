// Quickstart: the core RBPC idea in thirty lines. Build a network,
// provision the base set conceptually (all shortest paths), fail a link,
// and express the new shortest path as a concatenation of surviving base
// paths — Theorem 1 promises at most two after a single failure.
package main

import (
	"fmt"

	"rbpc"
)

func main() {
	// A 6-node ring with one chord:
	//
	//      0 --- 1 --- 2
	//      |      \    |
	//      5 ----- 4 - 3
	g := rbpc.NewGraph(6)
	e01 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 0, 1)
	g.AddEdge(1, 4, 1) // chord

	// The base set: every shortest path of the original network.
	base := rbpc.AllShortestPaths(g)

	// The primary route 0 -> 2 is 0-1-2.
	primary, _ := rbpc.ShortestPath(g, 0, 2)
	fmt.Println("primary path 0->2:", primary)

	// Link 0-1 fails.
	fv := rbpc.FailEdges(g, e01)
	fmt.Println("\nlink 0-1 fails")

	// Restore: the new shortest path, decomposed into base paths.
	restorer := rbpc.NewRestorer(base, rbpc.StrategyGreedy)
	plan, err := restorer.Restore(fv, 0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("backup path:   ", plan.Backup)
	fmt.Println("concatenation: ", plan.Decomp)
	fmt.Printf("PC length:      %d base paths (Theorem 1 bound for k=1: 2)\n", plan.PCLength())

	// The same via the MPLS deployment: source-router RBPC rewrites only
	// router 0's FEC row, to push one label per concatenated LSP; no ILM
	// row changes and no LSP is signaled.
	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		panic(err)
	}
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{Scheme: rbpc.SchemeSource})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	srv.Fail(e01)
	srv.Flush()

	snap := srv.Snapshot()
	pkt, err := snap.Send(0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nMPLS: packet 0->2 delivered via %v in %d hops\n", pkt.Trace, pkt.Hops)
	fmt.Printf("router 0's FEC row for 2 pushes %d labels, one per base LSP\n", len(snap.Route(0, 2).LSPs))
	fmt.Printf("signaling messages during restoration: 0\n")
}
