package rbpc

// Facade tests: the public API end to end, the way README snippets use it.

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestFacadeTheoremWorkflow(t *testing.T) {
	g := NewRing(6)
	g.AddEdge(1, 4, 1)
	base := AllShortestPaths(g)
	e, _ := g.FindEdge(0, 1)
	fv := FailEdges(g, e)

	r := NewRestorer(base, StrategyGreedy)
	plan, err := r.Restore(fv, 0, 2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if plan.PCLength() > 2 {
		t.Errorf("PC length %d > 2 for single failure on unweighted graph", plan.PCLength())
	}
	if plan.Backup.HasEdge(e) {
		t.Error("backup uses failed edge")
	}
}

func TestFacadeDisconnected(t *testing.T) {
	g := NewLine(3)
	e, _ := g.FindEdge(0, 1)
	r := NewRestorer(AllShortestPaths(g), StrategyGreedy)
	_, err := r.Restore(FailEdges(g, e), 0, 2)
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
}

// serve provisions g and starts a Server over it, closed with the test.
func serve(t *testing.T, g *Graph, cfg ServerConfig) *Server {
	t.Helper()
	dep, err := NewDeployment(g, DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestFacadeDeploymentLifecycle(t *testing.T) {
	g := NewComplete(5)
	srv := serve(t, g, ServerConfig{})
	e, _ := g.FindEdge(0, 1)
	srv.Fail(e)
	srv.Flush()
	pkt, err := srv.Snapshot().Send(0, 1)
	if err != nil || pkt.At != 1 || pkt.Hops != 2 {
		t.Fatalf("Send after failure: %v", err)
	}
	srv.Repair(e)
	srv.Flush()
	pkt, err = srv.Snapshot().Send(0, 1)
	if err != nil || pkt.Hops != 1 {
		t.Fatalf("after repair: err=%v hops=%d", err, pkt.Hops)
	}
}

// fakeClock is a Server clock the test sets.
type fakeClock struct{ since atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Unix(0, c.since.Load()) }

// TestFacadeHybrid: on a hybrid Server the bypass patch carries the broken
// pair from the epoch's publish, and the source's re-optimized route once
// the modeled flood reaches it — the same 5-hop detour on a ring.
func TestFacadeHybrid(t *testing.T) {
	g := NewRing(6)
	var clk fakeClock
	srv := serve(t, g, ServerConfig{
		Scheme: SchemeHybrid,
		Flood:  FloodConfig{Detect: 10 * time.Millisecond, PerHop: time.Millisecond},
		Clock:  clk.now,
	})
	e, _ := g.FindEdge(0, 1)
	srv.Fail(e)
	srv.Flush()
	snap := srv.Snapshot()
	if rt := snap.Route(0, 1); rt == nil || rt.Via != SchemeBypass {
		t.Fatalf("before the flood 0->1 is served %+v, want the bypass answer", rt)
	}
	if pkt, err := snap.Send(0, 1); err != nil || pkt.Hops != 5 {
		t.Fatalf("bypassed Send: %v", err)
	}
	clk.since.Store(int64(snap.MaxHorizon()))
	if !snap.Converged() {
		t.Fatal("not converged past the flood's last horizon")
	}
	if rt := snap.Route(0, 1); rt == nil || rt.Via != SchemeSource {
		t.Fatalf("after the flood 0->1 is served %+v, want the source answer", rt)
	}
	if _, err := snap.Send(0, 1); err != nil {
		t.Errorf("undeliverable after convergence: %v", err)
	}
}

func TestFacadeBaseline(t *testing.T) {
	g := NewRing(5)
	var eng Engine
	bal, err := NewBaseline(g, &eng, DefaultSignalingConfig())
	if err != nil {
		t.Fatal(err)
	}
	bal.NotifyDelay = 10
	e, _ := g.FindEdge(0, 1)
	bal.FailLink(e)
	eng.Run()
	if bal.Signaling().Total() == 0 {
		t.Error("baseline signaled nothing")
	}
	if _, err := bal.Net().SendIP(0, 1); err != nil {
		t.Errorf("baseline undeliverable after signaling: %v", err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	nets := []EvalNetwork{
		{Name: "ISP, Weighted", G: NewISPTopology(1), Trials: 10},
		{Name: "ring", G: NewRing(10), Trials: 10},
	}
	var buf bytes.Buffer
	RunTable1(&buf, nets)
	if !strings.Contains(buf.String(), "nodes") {
		t.Error("Table1 render")
	}
	row := RunTable2Row(nets[1], SingleLink, 1)
	if row.Scenarios == 0 {
		t.Error("Table2 empty")
	}
	buf.Reset()
	if res := RunTable3(&buf, nets, 100, 1); len(res) != 2 {
		t.Error("Table3 results")
	}
	buf.Reset()
	if res := RunFigure10(&buf, nets[0], 1); res.Scenarios == 0 {
		t.Error("Figure10 empty")
	}
}

func TestFacadeTopologies(t *testing.T) {
	for name, g := range map[string]*Graph{
		"isp":      NewISPTopology(1),
		"as":       NewASTopology(1, 0.02),
		"internet": NewInternetTopology(1, 0.003),
		"waxman":   NewWaxman(30, 0.5, 0.4, 1),
		"powerlaw": NewPowerLaw(50, 2, 1),
		"grid":     NewGrid(4, 4),
	} {
		if !Connected(g) {
			t.Errorf("%s disconnected", name)
		}
	}
	u := UnweightedCopy(NewISPTopology(1))
	if !u.UnitWeights() {
		t.Error("UnweightedCopy kept weights")
	}
}

func TestFacadeTrafficClasses(t *testing.T) {
	g := NewRing(6)
	g.AddEdge(0, 3, 5)
	classes := NewTrafficClasses(g)
	if _, err := classes.AddClass("fast", func(e Edge) bool { return e.W == 1 }, StrategyGreedy); err != nil {
		t.Fatal(err)
	}
	p, ok := classes.Route("fast", 0, 3)
	if !ok || p.Hops() != 3 {
		t.Fatalf("route = %v, %v", p, ok)
	}
	plan, err := classes.Restore("fast", []EdgeID{p.Edges[0]}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Backup.Edges {
		if g.Edge(e).W != 1 {
			t.Error("class restoration left its subnet")
		}
	}
	sub := ExtractSubnet(g, "fast", func(e Edge) bool { return e.W == 1 })
	if sub.G.Size() != 6 {
		t.Errorf("subnet size %d", sub.G.Size())
	}
}

func TestFacadeMergedTrees(t *testing.T) {
	g := NewRing(6)
	net := NewMPLSNetwork(g)
	tree, err := InstallMergedTree(net, 0, NextHopsToward(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := net.SendMerged(3, tree)
	if err != nil || pkt.At != 0 {
		t.Fatalf("merged forward: %v", err)
	}
	if tree.Size() != 6 {
		t.Errorf("tree size %d", tree.Size())
	}
}

// TestFacadeScenarioAndTrace scripts a failure timeline on a hybrid Server
// — fail link 0 at t=0, probe 0->1 and audit every pair at t=20ms — and
// reads the probe's per-hop trace.
func TestFacadeScenarioAndTrace(t *testing.T) {
	g := NewComplete(4)
	var clk fakeClock
	srv := serve(t, g, ServerConfig{
		Scheme: SchemeHybrid,
		Flood:  FloodConfig{Detect: 10 * time.Millisecond, PerHop: time.Millisecond},
		Clock:  clk.now,
	})
	srv.Fail(0)
	srv.Flush()
	clk.since.Store(int64(20 * time.Millisecond))
	snap := srv.Snapshot()
	edge := g.Edge(0)
	pkt, err := snap.Send(edge.U, edge.V)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if tr := pkt.Trace; len(tr) != 3 || tr[0] != edge.U || tr[2] != edge.V {
		t.Fatalf("probe trace %v, want a 2-hop walk from %d to %d", tr, edge.U, edge.V)
	}
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			if _, err := snap.Send(NodeID(s), NodeID(d)); err != nil {
				t.Fatalf("audit: %d->%d: %v", s, d, err)
			}
		}
	}
}

func TestFacadeEvalScalesAndRuns(t *testing.T) {
	if DefaultEvalScale().ASScale >= FullEvalScale().ASScale {
		t.Error("scales inverted")
	}
	t.Setenv("RBPC_FULL", "")
	if EvalScaleFromEnv() != DefaultEvalScale() {
		t.Error("env scale")
	}
	nets := EvalNetworks(EvalScale{Seed: 1, ASScale: 0.02, InternetScale: 0.003})
	if len(nets) != 4 {
		t.Fatalf("networks = %d", len(nets))
	}
	// Shrink trials so the full Table2 run stays fast.
	for i := range nets {
		nets[i].Trials = 4
	}
	var buf bytes.Buffer
	rows := RunTable2(&buf, nets, 1)
	if len(rows) != 16 || !strings.Contains(buf.String(), "avg PC") {
		t.Errorf("RunTable2: %d rows", len(rows))
	}
	buf.Reset()
	if rows := RunAsymmetry(&buf, nets[0], []int{0, 2}, 1); len(rows) != 2 {
		t.Error("RunAsymmetry rows")
	}
	buf.Reset()
	if rows := RunKBackupComparison(&buf, nets[0], []int{2}, 1); len(rows) != 2 {
		t.Error("RunKBackupComparison rows")
	}
}

func TestFacadeFailViews(t *testing.T) {
	g := NewRing(5)
	fv := FailNodes(g, 2)
	if fv.NodeUsable(2) {
		t.Error("FailNodes")
	}
	fv2 := Fail(g, []EdgeID{0}, []NodeID{3})
	if fv2.EdgeUsable(0) || fv2.NodeUsable(3) {
		t.Error("Fail")
	}
}

func TestFacadeBaseSets(t *testing.T) {
	g := NewRing(4)
	all := AllShortestPaths(g)
	one := OneShortestPathPerPair(g)
	p02a, _ := all.Between(0, 2)
	p02b, _ := one.Between(0, 2)
	if !all.Contains(p02a) || !one.Contains(p02b) {
		t.Error("base sets don't contain their own canonical paths")
	}
	ex := NewExplicitBase(g)
	if ex.Add(p02a); !ex.Contains(p02a) {
		t.Error("explicit base broken")
	}
	if dec, ok := DecomposeSparse(one, FailEdges(g), 0, 2); !ok || dec.Len() != 1 {
		t.Errorf("sparse on unfailed graph: %v", dec)
	}
}
