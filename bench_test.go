package rbpc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Tables 1-3, Figure 10) and measures the ablations called
// out in DESIGN.md. Each Benchmark* function both times the computation
// and reports the experiment's headline numbers via b.ReportMetric, so a
// single `go test -bench=. -benchmem` run reproduces the paper's shapes.
//
// Topologies default to CI-friendly scales; set RBPC_FULL=1 for the
// paper's full sizes.

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rbpc/internal/eval"
	"rbpc/internal/failure"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var (
	benchNetsOnce sync.Once
	benchNets     []EvalNetwork
)

func benchNetworks() []EvalNetwork {
	benchNetsOnce.Do(func() {
		benchNets = EvalNetworks(EvalScaleFromEnv())
	})
	return benchNets
}

// BenchmarkTable1 regenerates the topology-statistics table.
func BenchmarkTable1(b *testing.B) {
	nets := benchNetworks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table1(nets)
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
	for _, r := range eval.Table1(nets) {
		b.ReportMetric(r.AvgDegree, "avgdeg:"+shortName(r.Name))
	}
}

// BenchmarkTable2 regenerates every block of Table 2: restoration quality
// under the four failure classes on the four networks. The headline
// shapes from the paper: avg PC length ~2, ILM stretch far below 100%.
func BenchmarkTable2(b *testing.B) {
	kinds := []struct {
		name string
		kind FailureKind
	}{
		{"OneLink", SingleLink},
		{"TwoLinks", DoubleLink},
		{"OneRouter", SingleRouter},
		{"TwoRouters", DoubleRouter},
	}
	for _, k := range kinds {
		for _, net := range benchNetworks() {
			net := net
			b.Run(k.name+"/"+shortName(net.Name), func(b *testing.B) {
				var row eval.Table2Row
				for i := 0; i < b.N; i++ {
					row = RunTable2Row(net, k.kind, int64(i)+1)
				}
				b.ReportMetric(row.AvgPC, "PCavg")
				b.ReportMetric(row.LengthSF, "lenSF")
				b.ReportMetric(100*row.AvgILMSF, "ILMsf%")
				b.ReportMetric(100*row.Redundancy, "redun%")
			})
		}
	}
}

// BenchmarkTable3 regenerates the bypass-length distribution. Paper
// shape: the bulk of bypasses take 2-3 hops.
func BenchmarkTable3(b *testing.B) {
	for _, net := range benchNetworks() {
		net := net
		b.Run(shortName(net.Name), func(b *testing.B) {
			var res eval.Table3Result
			for i := 0; i < b.N; i++ {
				res = eval.Table3(net, 5000, 1)
			}
			var short float64
			for _, r := range res.Rows {
				if r.Hopcount <= 3 {
					short += r.Percent
				}
			}
			b.ReportMetric(short, "bypass<=3hops%")
		})
	}
}

// BenchmarkFigure10 regenerates the local-RBPC stretch histograms on the
// weighted ISP. Paper shape: the vast majority of local restorations cost
// about as much as the source-routed optimum.
func BenchmarkFigure10(b *testing.B) {
	net := benchNetworks()[0] // ISP, Weighted
	var res eval.Figure10Result
	for i := 0; i < b.N; i++ {
		res = eval.Figure10(net, int64(i)+1)
	}
	b.ReportMetric(res.CostEndRoute.Percent(1)+res.CostEndRoute.Percent(2), "endroute~opt%")
	b.ReportMetric(res.CostEdgeBypass.Percent(1)+res.CostEdgeBypass.Percent(2), "bypass~opt%")
}

// BenchmarkTheoremScaling measures the exact decomposition machinery on
// the Figure-2 comb as k grows (Theorem 1 tightness at scale).
func BenchmarkTheoremScaling(b *testing.B) {
	for _, k := range []int{1, 4, 16, 64} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			gd := topology.Comb(k)
			fv := Fail(gd.G, gd.FailedEdges, nil)
			base := AllShortestPaths(gd.G)
			b.ResetTimer()
			var dec Decomposition
			for i := 0; i < b.N; i++ {
				backup, ok := ShortestPath(fv, gd.S, gd.T)
				if !ok {
					b.Fatal("comb disconnected")
				}
				dec = DecomposeGreedy(base, backup)
			}
			if dec.Len() != k+1 {
				b.Fatalf("components = %d, want %d", dec.Len(), k+1)
			}
		})
	}
}

// BenchmarkAblationDecompose compares the two decomposition strategies
// (DESIGN.md ablation 1): greedy largest-prefix vs Dijkstra on the
// base-path graph, same single-failure workload.
func BenchmarkAblationDecompose(b *testing.B) {
	g := topology.PaperISP(1)
	e := g.Edges()[0].ID
	fv := FailEdges(g, e)
	s, d := g.Edge(e).U, g.Edge(e).V

	b.Run("greedy", func(b *testing.B) {
		base := AllShortestPaths(g)
		r := NewRestorer(base, StrategyGreedy)
		var plan Plan
		var err error
		for i := 0; i < b.N; i++ {
			plan, err = r.Restore(fv, s, d)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.PCLength()), "components")
	})
	b.Run("sparse", func(b *testing.B) {
		base := OneShortestPathPerPair(g)
		r := NewRestorer(base, StrategySparse)
		var plan Plan
		var err error
		for i := 0; i < b.N; i++ {
			plan, err = r.Restore(fv, s, d)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.PCLength()), "components")
	})
}

// BenchmarkAblationTieBreak compares base-set selection policies
// (DESIGN.md ablation 2): arbitrary canonical trees vs padded-unique
// selection, measured by average components over sampled failures.
func BenchmarkAblationTieBreak(b *testing.B) {
	g := topology.PaperISP(2)
	oracle := spath.NewOracle(g)
	scens := failure.Sample(g, oracle, failure.SingleLink, 40, newRand(3))

	run := func(b *testing.B, base BaseSet) {
		var total, count int
		for i := 0; i < b.N; i++ {
			total, count = 0, 0
			for _, sc := range scens {
				fv := sc.View(g)
				dec, ok := DecomposeSparse(base, fv, sc.Src, sc.Dst)
				if !ok {
					continue
				}
				total += dec.Len()
				count++
			}
		}
		if count > 0 {
			b.ReportMetric(float64(total)/float64(count), "PCavg")
		}
	}
	b.Run("canonical", func(b *testing.B) { run(b, AllShortestPaths(g)) })
	b.Run("padded-unique", func(b *testing.B) { run(b, OneShortestPathPerPair(g)) })
}

// BenchmarkAblationOracle compares the memoized distance oracle against
// recomputing SSSP per query (DESIGN.md ablation 3).
func BenchmarkAblationOracle(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	queries := make([][2]NodeID, 64)
	rng := newRand(9)
	for i := range queries {
		queries[i] = [2]NodeID{NodeID(rng.Intn(g.Order())), NodeID(rng.Intn(g.Order()))}
	}
	b.Run("memoized", func(b *testing.B) {
		o := NewOracle(g)
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			o.Dist(q[0], q[1])
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, ok := ShortestPath(g, q[0], q[1]); !ok {
				b.Fatal("unreachable")
			}
		}
	})
}

// BenchmarkAblationProvisioning quantifies ILM cost of the provisioning
// policies (DESIGN.md ablation 5): RBPC's base set vs explicitly
// pre-provisioning one backup LSP per (pair, failure) case — Table 2's
// ILM stretch, reported as raw entry counts.
func BenchmarkAblationProvisioning(b *testing.B) {
	net := benchNetworks()[0]
	var row eval.Table2Row
	for i := 0; i < b.N; i++ {
		row = RunTable2Row(net, SingleLink, 1)
	}
	b.ReportMetric(100*row.MinILMSF, "minILM%")
	b.ReportMetric(100*row.AvgILMSF, "avgILM%")
}

// BenchmarkAblationKBackup compares RBPC against the classic k-backup
// baseline (pre-established alternates, reference [7]-style) on sampled
// single- and double-link failures: coverage (RBPC is always 100% of
// connected pairs), path-quality stretch, and pre-provisioned ILM state.
func BenchmarkAblationKBackup(b *testing.B) {
	net := eval.Network{Name: "ISPw", G: topology.PaperISP(4), Trials: 60}
	for _, k := range []int{2, 3} {
		for _, kindCase := range []struct {
			name string
			kind FailureKind
		}{{"OneLink", SingleLink}, {"TwoLinks", DoubleLink}} {
			k, kindCase := k, kindCase
			b.Run(benchName("k", k)+"/"+kindCase.name, func(b *testing.B) {
				var res eval.KBackupComparison
				for i := 0; i < b.N; i++ {
					res = eval.CompareKBackup(net, k, kindCase.kind, int64(i)+1)
				}
				b.ReportMetric(res.CoveragePct(), "coverage%")
				b.ReportMetric(res.KBackupAvgStretch, "stretch")
				if res.RBPCILM > 0 {
					b.ReportMetric(float64(res.KBackupILM)/float64(res.RBPCILM), "ILMx")
				}
			})
		}
	}
}

// BenchmarkAblationMerging quantifies label merging (the paper's
// Section-2 ILM note): total ILM entries for all-destination coverage
// with merged per-destination trees vs point-to-point all-pairs LSPs.
func BenchmarkAblationMerging(b *testing.B) {
	g := topology.ISP(topology.ISPConfig{
		Core: 6, Agg: 12, Access: 22,
		CoreOffsets: []int{1, 2}, AggLateral: 3, DualAccess: 14,
		WCore: 1, WAgg: 3, WAccess: 10,
	}, 1)

	b.Run("merged", func(b *testing.B) {
		var total int
		for i := 0; i < b.N; i++ {
			net := NewMPLSNetwork(g)
			for d := 0; d < g.Order(); d++ {
				if _, err := InstallMergedTree(net, NodeID(d), NextHopsToward(g, NodeID(d))); err != nil {
					b.Fatal(err)
				}
			}
			total, _ = net.TotalILM()
		}
		b.ReportMetric(float64(total), "ILMentries")
	})
	b.Run("point-to-point", func(b *testing.B) {
		o := NewOracle(g)
		var total int
		for i := 0; i < b.N; i++ {
			net := NewMPLSNetwork(g)
			for s := 0; s < g.Order(); s++ {
				for d := 0; d < g.Order(); d++ {
					if s == d {
						continue
					}
					p, ok := o.Path(NodeID(s), NodeID(d))
					if !ok {
						continue
					}
					if _, err := net.EstablishLSP(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			total, _ = net.TotalILM()
		}
		b.ReportMetric(float64(total), "ILMentries")
	})
}

// BenchmarkForwarding measures the packet forwarder through a served epoch
// with an active restoration (stacked labels on the path).
func BenchmarkForwarding(b *testing.B) {
	g := topology.Ring(32)
	srv := benchServer(b, g, ServerConfig{})
	e, _ := g.FindEdge(0, 1)
	srv.Fail(e)
	srv.Flush()
	snap := srv.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Send(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServer provisions g and starts a Server over it.
func benchServer(b *testing.B, g *Graph, cfg ServerConfig) *Server {
	dep, err := NewDeployment(g, DefaultDeployConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := Serve(dep, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkProvisionDeployment measures full RBPC pre-provisioning
// (canonical LSPs + subpath closure + edge LSPs + FEC population).
func BenchmarkProvisionDeployment(b *testing.B) {
	g := topology.ISP(topology.ISPConfig{
		Core: 6, Agg: 12, Access: 22,
		CoreOffsets: []int{1, 2}, AggLateral: 3, DualAccess: 14,
		WCore: 1, WAgg: 3, WAccess: 10,
	}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDeployment(g, DefaultDeployConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceRestoration measures the end-to-end source-router RBPC
// reaction to one link failing and coming back, each transition published
// by a Server's writer: online (every plan recomputed from scratch,
// ServerConfig.FullRebuild) vs precomputed (after the first round both
// failed-sets' plans are in the plan cache — the paper's "fastest if
// pre-computed and indexed by the specific link failure").
func BenchmarkSourceRestoration(b *testing.B) {
	g := topology.Waxman(24, 0.7, 0.4, 5)
	e := g.Edges()[0].ID
	for _, arm := range []struct {
		name string
		cfg  ServerConfig
	}{{"online", ServerConfig{FullRebuild: true}}, {"precomputed", ServerConfig{}}} {
		b.Run(arm.name, func(b *testing.B) {
			srv := benchServer(b, g, arm.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Fail(e)
				srv.Flush()
				srv.Repair(e)
				srv.Flush()
			}
		})
	}
}

func shortName(name string) string {
	switch name {
	case "ISP, Weighted":
		return "ISPw"
	case "ISP, Unweighted":
		return "ISPu"
	case "AS Graph":
		return "AS"
	default:
		return strings.ReplaceAll(name, " ", "")
	}
}

func benchName(prefix string, k int) string {
	return prefix + "=" + strconv.Itoa(k)
}
