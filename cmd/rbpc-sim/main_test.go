package main

import (
	"strings"
	"testing"
	"time"

	"rbpc"
	"rbpc/internal/engine"
)

// serve provisions the rbpc-sim topology for seed and starts a server on it
// under scheme and fault, with the demo's flood model on a clock the test
// sets; it returns the graph, the server, the clock and the link rbpc-sim
// fails.
func serve(t *testing.T, seed int64, scheme engine.Scheme, fault engine.Fault) (*rbpc.Graph, *rbpc.Server, *clock, rbpc.EdgeID) {
	t.Helper()
	g := rbpc.NewWaxman(16, 0.7, 0.4, seed)
	dep, err := rbpc.NewDeployment(g, rbpc.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	clk := new(clock)
	srv, err := rbpc.Serve(dep, rbpc.ServerConfig{Scheme: scheme, Flood: flood, Clock: clk.now, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	failEdge := firstNonBridge(g)
	if failEdge < 0 {
		t.Fatal("topology has only bridges")
	}
	return g, srv, clk, failEdge
}

// TestCheckConvergedClean: once the flood has reached every router, each
// scheme's epoch matches the reference model — the divergence gate must
// stay silent on a healthy run.
func TestCheckConvergedClean(t *testing.T) {
	for _, seed := range []int64{7, 11, 23} {
		for _, scheme := range engine.Schemes() {
			g, srv, clk, failEdge := serve(t, seed, scheme, engine.FaultNone)
			srv.Fail(failEdge)
			srv.Flush()
			snap := srv.Snapshot()
			clk.set(snap.MaxHorizon())
			if !snap.Converged() {
				t.Fatalf("seed %d, %v: not converged at the flood's last horizon", seed, scheme)
			}
			if err := checkConverged(g, snap, failEdge); err != nil {
				t.Errorf("seed %d, %v: healthy run flagged as divergent: %v", seed, scheme, err)
			}
		}
	}
}

// TestCheckConvergedCatchesSabotage is the regression test for the
// divergence exit path. Under FaultDropEpoch the engine never publishes a
// failed-set smaller than the one it serves: two links go down and come
// back, then rbpc-sim's link fails, and the epoch still holds the first
// two. The failed link's own endpoints keep their 1-hop primary over it,
// so the data plane delivers over the dead link — the check must say so.
func TestCheckConvergedCatchesSabotage(t *testing.T) {
	g, srv, clk, failEdge := serve(t, 7, engine.SchemeHybrid, engine.FaultDropEpoch)
	var decoys []rbpc.EdgeID
	for _, e := range g.Edges() {
		if e.ID != failEdge && len(decoys) < 2 && rbpc.Connected(rbpc.FailEdges(g, append(decoys, e.ID)...)) {
			decoys = append(decoys, e.ID)
		}
	}
	for _, e := range decoys {
		srv.Fail(e)
	}
	srv.Flush()
	for _, e := range decoys {
		srv.Repair(e)
	}
	srv.Fail(failEdge)
	srv.Flush()
	clk.set(time.Hour)

	err := checkConverged(g, srv.Snapshot(), failEdge)
	if err == nil {
		t.Fatal("checkConverged accepted an epoch that lost a failure")
	}
	if !strings.Contains(err.Error(), "over failed link") {
		t.Fatalf("unexpected divergence kind: %v", err)
	}
}
