// ISP failover: the paper's motivating scenario on a hierarchical ISP
// backbone. A core link dies; we watch the three restoration strategies
// race on a simulated clock:
//
//  1. local edge-bypass RBPC at the adjacent router (fastest, possibly
//     longer paths),
//  2. source-router RBPC as the link-state flood reaches each source
//     (optimal paths, no signaling),
//  3. the conventional baseline that tears down and re-signals every
//     affected LSP via LDP (optimal paths, heavy signaling, slowest).
//
// The first two are one hybrid server (rbpc.SchemeHybrid), the third a
// discrete-event run of LDP.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"rbpc"
	"rbpc/internal/topology"
)

func main() {
	// A small ISP: 6 core, 12 aggregation, 22 access routers -- the same
	// three-tier shape as the paper's 200-node snapshot, scaled to keep
	// full pre-provisioning (every subpath an LSP) instant.
	cfg := topology.ISPConfig{
		Core: 6, Agg: 12, Access: 22,
		CoreOffsets: []int{1, 2}, AggLateral: 3, DualAccess: 16,
		WCore: 1, WAgg: 3, WAccess: 10,
	}
	g := topology.ISP(cfg, 42)
	fmt.Printf("ISP stand-in: %d routers, %d links\n", g.Order(), g.Size())

	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("provisioned %d base LSPs (canonical shortest paths, their subpaths, and per-link LSPs)\n",
		dep.Base().Len())

	// The server's clock is the simulation's: time since the failure.
	var since atomic.Int64
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{
		Scheme: rbpc.SchemeHybrid,
		Flood:  rbpc.FloodConfig{Detect: 10 * time.Millisecond, PerHop: 1100 * time.Microsecond},
		Clock:  func() time.Time { return time.Unix(0, since.Load()) },
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	now := func() float64 { return float64(since.Load()) / float64(time.Millisecond) }

	// Fail a core link (always bypassable in the circulant core).
	coreLink := g.Edges()[0]
	fmt.Printf("\nt=0: core link %d-%d fails\n", coreLink.U, coreLink.V)
	srv.Fail(coreLink.ID)
	srv.Flush()
	snap := srv.Snapshot()

	// An access router whose traffic crossed the dead link.
	pairs := srv.AffectedPairs(coreLink.ID)
	if len(pairs) == 0 {
		fmt.Println("no routes crossed this link; try another seed")
		return
	}
	probePair := pairs[len(pairs)/2]
	probe := func(label string) {
		pkt, err := snap.Send(probePair.Src, probePair.Dst)
		if err != nil {
			fmt.Printf("  t=%6.2fms  probe %d->%d: DROPPED — %s\n", now(), probePair.Src, probePair.Dst, label)
			return
		}
		fmt.Printf("  t=%6.2fms  probe %d->%d: %d hops — %s\n", now(), probePair.Src, probePair.Dst, pkt.Hops, label)
	}
	probe("local edge-bypass active")

	// Restoration timeline: step the clock hop by hop of the flood and note
	// when each source whose route crossed the link switches.
	srcSeen := make(map[rbpc.NodeID]bool)
	var first, last float64
	for at := 10 * time.Millisecond; !snap.Converged(); at += 1100 * time.Microsecond {
		since.Store(int64(at))
		for _, pr := range pairs {
			if !srcSeen[pr.Src] && snap.HorizonPassed(pr.Src) {
				if len(srcSeen) == 0 {
					first = now()
				}
				srcSeen[pr.Src] = true
				last = now()
			}
		}
	}
	probe("source-router RBPC, optimal")
	fmt.Printf("\n%d source routers re-optimized %d pairs between %.2fms and %.2fms\n",
		len(srcSeen), len(pairs), first, last)

	// Compare against the conventional baseline.
	var balEng rbpc.Engine
	bal, err := rbpc.NewBaseline(g, &balEng, rbpc.DefaultSignalingConfig())
	if err != nil {
		panic(err)
	}
	bal.NotifyDelay = 10 // same detection delay
	bal.FailLink(coreLink.ID)
	balEng.Run()
	var worst float64
	for _, at := range bal.RestoredAt {
		worst = max(worst, float64(at))
	}
	fmt.Printf("\ncomparison for this failure:\n")
	fmt.Printf("  %-28s %-34s %s\n", "", "traffic restored", "signaling")
	fmt.Printf("  %-28s %-34s 0 messages\n", "RBPC local + source", fmt.Sprintf("bypass from t=0, optimal %.2fms", last))
	fmt.Printf("  %-28s %-34s %d LDP messages\n", "teardown + re-signal", fmt.Sprintf("last LSP at %.2fms", worst), bal.Signaling().Total())
}
