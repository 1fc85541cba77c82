// Command rbpc-sim fails one link of an RBPC deployment under the online
// restoration engine and prints the timeline a probe packet sees on the
// engine's clock: the route before the failure, the local patch the router
// next to it serves from the epoch's publish, each source switching to its
// re-optimized route as the modeled link-state flood reaches it (hybrid),
// and every pair checked against the failed graph's shortest paths — next
// to what the conventional teardown-and-resignal baseline would have done.
// The clock is simulated, so the output is deterministic.
//
// Usage:
//
//	rbpc-sim [-nodes N] [-seed N] [-scheme source|local|bypass|hybrid] [-src A -dst B]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"rbpc"
	"rbpc/internal/engine"
)

// detectMS is how long the routers next to a failure take to detect it:
// the flood model's Detect and the baseline's notification delay alike.
const detectMS = 10

// flood is the hybrid's link-state flood: detection, then 1 ms a link and
// 0.1 ms of processing a hop.
var flood = rbpc.FloodConfig{Detect: detectMS * time.Millisecond, PerHop: 1100 * time.Microsecond}

// clock is the engine's clock (rbpc.ServerConfig.Clock), set by the demo:
// time since the failure's epoch was published.
type clock struct{ since atomic.Int64 }

func (c *clock) now() time.Time      { return time.Unix(0, c.since.Load()) }
func (c *clock) set(d time.Duration) { c.since.Store(int64(d)) }
func (c *clock) ms() float64         { return ms(time.Duration(c.since.Load())) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// firstNonBridge returns the first link whose failure leaves g connected,
// so restoration is possible; -1 if every link is a bridge.
func firstNonBridge(g *rbpc.Graph) rbpc.EdgeID {
	for _, e := range g.Edges() {
		if rbpc.Connected(rbpc.FailEdges(g, e.ID)) {
			return e.ID
		}
	}
	return -1
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code: 0 when every pair
// matches the reference model, 1 on a divergence or a topology with no link
// to restore around, 2 on a flag value it refuses.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbpc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 16, "Waxman topology size")
	seed := fs.Int64("seed", 7, "random seed")
	schemeName := fs.String("scheme", "hybrid", "restoration scheme: source, local, bypass or hybrid")
	srcFlag := fs.Int("src", -1, "probe source (default: an endpoint of the failed link; give with -dst)")
	dstFlag := fs.Int("dst", -1, "probe destination (give with -src)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, msg ...any) int {
		fmt.Fprintln(stderr, append([]any{"rbpc-sim:"}, msg...)...)
		return code
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// A link whose failure leaves the graph connected lies on a cycle, and a
	// cycle takes three nodes. A probe names both of its ends or neither:
	// one end alone would be replaced by the failed link's, and a self-pair
	// always reads DROPPED.
	switch {
	case *nodes < 3:
		return fail(2, "-nodes must be at least 3, got", *nodes)
	case set["src"] != set["dst"]:
		return fail(2, "-src and -dst are given together or not at all")
	case set["src"] && (*srcFlag < 0 || *srcFlag >= *nodes):
		return fail(2, fmt.Sprintf("-src must be a node in [0,%d), got %d", *nodes, *srcFlag))
	case set["dst"] && (*dstFlag < 0 || *dstFlag >= *nodes):
		return fail(2, fmt.Sprintf("-dst must be a node in [0,%d), got %d", *nodes, *dstFlag))
	case set["src"] && *srcFlag == *dstFlag:
		return fail(2, "-src and -dst must differ, got", *srcFlag, "for both")
	}
	scheme, err := engine.ParseScheme(*schemeName)
	if err != nil {
		return fail(2, "-scheme:", err)
	}
	g := rbpc.NewWaxman(*nodes, 0.7, 0.4, *seed)
	fmt.Fprintf(stdout, "topology: %d nodes, %d links; scheme %v", g.Order(), g.Size(), scheme)
	if scheme == rbpc.SchemeHybrid {
		fmt.Fprintf(stdout, " (flood: %vms to detect, %.2fms a hop)", detectMS, ms(flood.PerHop))
	}
	fmt.Fprintln(stdout)

	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		return fail(1, err)
	}
	failEdge := firstNonBridge(g)
	if failEdge < 0 {
		return fail(1, "topology has only bridges; try another seed")
	}
	src, dst := rbpc.NodeID(*srcFlag), rbpc.NodeID(*dstFlag)
	if !set["src"] {
		src, dst = g.Edge(failEdge).U, g.Edge(failEdge).V
	}
	var clk clock
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{Scheme: scheme, Flood: flood, Clock: clk.now})
	if err != nil {
		return fail(1, err)
	}
	err = timeline(stdout, g, srv, &clk, failEdge, src, dst)
	srv.Close()
	if err != nil {
		return fail(1, fmt.Sprintf("divergence (seed %d): %v", *seed, err))
	}

	fmt.Fprintln(stdout, "\nconventional baseline (teardown + LDP re-signaling):")
	var balEng rbpc.Engine
	bal, err := rbpc.NewBaseline(g, &balEng, rbpc.DefaultSignalingConfig())
	if err != nil {
		return fail(1, err)
	}
	bal.NotifyDelay = detectMS
	bal.FailLink(failEdge)
	balEng.Run()
	var worst float64
	for _, at := range bal.RestoredAt {
		worst = max(worst, float64(at))
	}
	fmt.Fprintf(stdout, "  %d LDP messages, last pair restored at %.2fms\n", bal.Signaling().Total(), worst)
	return 0
}

// timeline fails failEdge on srv, prints the timeline of a probe from src
// to dst and the per-source switchovers, and checks the converged epoch
// against the reference model.
func timeline(stdout io.Writer, g *rbpc.Graph, srv *rbpc.Server, clk *clock, failEdge rbpc.EdgeID, src, dst rbpc.NodeID) error {
	edge := g.Edge(failEdge)
	probe := func(label string) {
		pkt, err := srv.Snapshot().Send(src, dst)
		if err != nil {
			fmt.Fprintf(stdout, "  [%8.2fms] probe %d->%d: DROPPED (%v)\n", clk.ms(), src, dst, err)
			return
		}
		fmt.Fprintf(stdout, "  [%8.2fms] probe %d->%d: delivered in %d hops via %v (%s)\n",
			clk.ms(), src, dst, pkt.Hops, pkt.Trace, label)
	}

	probe("pre-failure")
	fmt.Fprintf(stdout, "\nfailing link %d (%d-%d); its epoch publishes at t=0\n", failEdge, edge.U, edge.V)
	srv.Fail(failEdge)
	srv.Flush()
	snap := srv.Snapshot()
	scheme := snap.Scheme()
	switch scheme {
	case rbpc.SchemeSource:
		probe("source-router RBPC: the sources' rows rewritten at publish")
	case rbpc.SchemeLocal, rbpc.SchemeBypass:
		probe(scheme.String() + " patch at the failure; the sources push what they pushed")
	case rbpc.SchemeHybrid:
		probe("bypass patch at the failure")
		// Step the clock hop by hop of the flood and report each source
		// whose primary crossed the link as its horizon passes.
		pairs := make(map[rbpc.NodeID]int)
		for _, pr := range srv.AffectedPairs(failEdge) {
			pairs[pr.Src]++
		}
		for at := flood.Detect; !snap.Converged(); at += flood.PerHop {
			clk.set(at)
			var now []rbpc.NodeID
			for s := range pairs {
				if snap.HorizonPassed(s) {
					now = append(now, s)
				}
			}
			slices.Sort(now)
			for _, s := range now {
				fmt.Fprintf(stdout, "  [%8.2fms] source %3d switches %d pairs to its re-optimized route\n", clk.ms(), s, pairs[s])
				delete(pairs, s)
			}
		}
		probe("source-router RBPC")
	}

	if err := checkConverged(g, snap, failEdge); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nreference-model check: every pair delivered, none over the failed link; source routes are shortest")
	rewritten := 0
	if scheme == rbpc.SchemeSource || scheme == rbpc.SchemeHybrid {
		rewritten = len(srv.AffectedPairs(failEdge))
	}
	fmt.Fprintf(stdout, "RBPC summary: %d FEC rows rewritten, %d ILM rows patched, no LSP signaled\n",
		rewritten, srv.Stats().DetourHops.Count)
	return nil
}
