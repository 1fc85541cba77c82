package topology

import (
	"fmt"
	"math"
	"math/rand"

	"rbpc/internal/graph"
)

// The paper evaluates on three topologies (its Table 1):
//
//	ISP       ~200 nodes   ~400 links   avg degree 3.56   OSPF weights
//	Internet  40,377 nodes 101,659 links avg degree 5.035  hop count
//	AS Graph  4,746 nodes  9,878 links   avg degree 4.16   hop count
//
// The originals are proprietary (ISP) or built from 2000-era measurement
// archives (NLANR AS graph, Govindan-Tangmunarunkit router map) that are no
// longer distributable, so this package generates synthetic stand-ins that
// match the published statistics: node and link counts, average degree,
// the heavy-tailed degree law of the measured graphs, and — for the ISP —
// a capacity-derived symmetric integral weight assignment.

// ISPConfig parameterizes the hierarchical ISP generator.
type ISPConfig struct {
	Core        int   // routers in the backbone mesh
	Agg         int   // aggregation routers, dual-homed to adjacent core routers
	Access      int   // access routers, single- or dual-homed to aggregation
	CoreOffsets []int // circulant offsets of the core mesh (e.g. {1,2})
	AggLateral  int   // lateral agg-agg links
	DualAccess  int   // how many access routers get a second uplink
	WCore       float64
	WAgg        float64
	WAccess     float64
	// WJitter adds a uniform integral jitter in [0, WJitter] to every
	// link weight. Real OSPF weight assignments are capacity-derived but
	// not perfectly uniform (mixed link speeds within a tier), which
	// keeps equal-cost ties rare; the paper's weighted ISP shows only
	// 16.5% of failures leaving an equal-cost alternative.
	WJitter int
}

// DefaultISP matches the paper's ISP row: 200 nodes, 356 links, average
// degree 3.56.
func DefaultISP() ISPConfig {
	return ISPConfig{
		Core: 12, Agg: 48, Access: 140,
		CoreOffsets: []int{1, 2}, AggLateral: 0, DualAccess: 72,
		WCore: 1, WAgg: 3, WAccess: 10, WJitter: 2,
	}
}

// ISP generates a three-tier hierarchical ISP backbone with the
// survivability structure production networks use (and that the paper's
// Table 3 measures: ~90% of links bypassable in 2 hops):
//
//   - The core is a circulant mesh (ring plus skip chords), so every core
//     link has a 2-hop bypass.
//   - Aggregation routers come in pairs: both members dual-home to the
//     same adjacent core routers and a lateral link joins them, so every
//     uplink and every lateral has a 2-hop bypass.
//   - Dual-homed access routers attach to the two members of one
//     aggregation pair, so their uplinks bypass in 2 hops over the
//     lateral; the remainder are single-homed (their uplink is a bridge,
//     as real stub links are).
//
// Link weights follow the common OSPF practice the paper describes
// (weight proportional to inverse capacity, symmetric): core links are
// cheapest, access links dearest. The graph is connected by construction.
func ISP(cfg ISPConfig, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Core + cfg.Agg + cfg.Access
	g := graph.New(n)
	jitter := func(w float64) float64 {
		if cfg.WJitter <= 0 {
			return w
		}
		return w + float64(rng.Intn(cfg.WJitter+1))
	}
	coreID := func(i int) graph.NodeID { return graph.NodeID(i) }
	aggID := func(i int) graph.NodeID { return graph.NodeID(cfg.Core + i) }
	accessID := func(i int) graph.NodeID { return graph.NodeID(cfg.Core + cfg.Agg + i) }

	for i := 0; i < cfg.Core; i++ {
		g.SetName(coreID(i), "core")
	}

	// Core circulant mesh.
	offsets := cfg.CoreOffsets
	if len(offsets) == 0 {
		offsets = []int{1}
	}
	for _, off := range offsets {
		for i := 0; i < cfg.Core; i++ {
			j := (i + off) % cfg.Core
			if _, dup := g.FindEdge(coreID(i), coreID(j)); !dup && i != j {
				g.AddEdge(coreID(i), coreID(j), jitter(cfg.WCore))
			}
		}
	}

	// Aggregation routers in pairs: shared adjacent core parents plus a
	// lateral link. An odd trailing router is homed without a partner.
	pairs := cfg.Agg / 2
	for p := 0; p < pairs; p++ {
		c := rng.Intn(cfg.Core)
		for _, i := range []int{2 * p, 2*p + 1} {
			g.SetName(aggID(i), "agg")
			g.AddEdge(aggID(i), coreID(c), jitter(cfg.WAgg))
			g.AddEdge(aggID(i), coreID((c+1)%cfg.Core), jitter(cfg.WAgg))
		}
		g.AddEdge(aggID(2*p), aggID(2*p+1), jitter(cfg.WAgg))
	}
	if cfg.Agg%2 == 1 {
		i := cfg.Agg - 1
		c := rng.Intn(cfg.Core)
		g.SetName(aggID(i), "agg")
		g.AddEdge(aggID(i), coreID(c), jitter(cfg.WAgg))
		g.AddEdge(aggID(i), coreID((c+1)%cfg.Core), jitter(cfg.WAgg))
	}

	// Extra lateral agg-agg links beyond the pair laterals.
	added := 0
	for added < cfg.AggLateral && cfg.Agg >= 3 {
		u, v := rng.Intn(cfg.Agg), rng.Intn(cfg.Agg)
		if u == v {
			continue
		}
		if _, dup := g.FindEdge(aggID(u), aggID(v)); dup {
			continue
		}
		g.AddEdge(aggID(u), aggID(v), jitter(cfg.WAgg))
		added++
	}

	// Access routers: one uplink each; the dual-homed ones attach to both
	// members of one aggregation pair.
	dual := make([]bool, cfg.Access)
	for i, p := range rng.Perm(cfg.Access) {
		if i < cfg.DualAccess {
			dual[p] = true
		}
	}
	for i := 0; i < cfg.Access; i++ {
		g.SetName(accessID(i), "access")
		if dual[i] && pairs > 0 {
			p := rng.Intn(pairs)
			g.AddEdge(accessID(i), aggID(2*p), jitter(cfg.WAccess))
			g.AddEdge(accessID(i), aggID(2*p+1), jitter(cfg.WAccess))
			continue
		}
		g.AddEdge(accessID(i), aggID(rng.Intn(cfg.Agg)), jitter(cfg.WAccess))
	}
	return g
}

// PaperISP returns the weighted ISP stand-in at full paper scale.
func PaperISP(seed int64) *graph.Graph { return ISP(DefaultISP(), seed) }

// UnitWeightCopy returns a copy of g with every edge weight replaced by 1
// (the paper's "ISP Unweighted" row: same topology, hop-count routing).
func UnitWeightCopy(g *graph.Graph) *graph.Graph {
	out := graph.New(g.Order())
	for _, e := range g.Edges() {
		out.AddEdge(e.U, e.V, 1)
	}
	return out
}

// AsymmetricCopy converts an undirected graph into a directed one with
// independently jittered per-direction weights: each undirected edge
// becomes two arcs whose weights are the original plus independent
// integral jitter in [0, jitter].
//
// This models the paper's closing remark: traffic-engineering techniques
// (Fortz-Thorup weight optimization) "can generally assign asymmetric
// link weights", and the restoration theorems do not survive the
// transition to directed graphs. eval.Asymmetry measures how often the
// k+1 bound still holds empirically.
//
// Arc 2i is the forward direction of undirected edge i, arc 2i+1 the
// reverse.
func AsymmetricCopy(g *graph.Graph, seed int64, jitter int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := graph.NewDirected(g.Order())
	for _, e := range g.Edges() {
		j1, j2 := 0, 0
		if jitter > 0 {
			j1, j2 = rng.Intn(jitter+1), rng.Intn(jitter+1)
		}
		out.AddEdge(e.U, e.V, e.W+float64(j1))
		out.AddEdge(e.V, e.U, e.W+float64(j2))
	}
	return out
}

// scaled returns round(full * scale) with a floor.
func scaled(full int, scale float64, floor int) int {
	v := int(math.Round(float64(full) * scale))
	if v < floor {
		return floor
	}
	return v
}

// PaperAS returns the AS-graph stand-in: a power-law graph with the
// paper's node/link counts scaled by scale (1.0 = full 4,746 nodes and
// 9,878 links). Weights are 1: inter-AS routing is hop-count.
func PaperAS(seed int64, scale float64) *graph.Graph {
	n := scaled(4746, scale, 60)
	m := scaled(9878, scale, 2*60)
	return PowerLawExtra(n, 2, m, seed)
}

// PaperInternet returns the Internet router-graph stand-in at the paper's
// counts scaled by scale (1.0 = full 40,377 nodes and 101,659 links).
// Weights are 1.
func PaperInternet(seed int64, scale float64) *graph.Graph {
	n := scaled(40377, scale, 80)
	m := scaled(101659, scale, 2*80)
	return PowerLawExtra(n, 2, m, seed)
}

// Kinds lists the stand-in topologies Build resolves, by name.
var Kinds = []string{"as", "isp", "internet", "waxman"}

// Build resolves a stand-in topology by name — the one spelling shared by
// the serving commands and the shardrpc worker processes, which must
// rebuild the coordinator's exact graph from (kind, scale, seed) alone.
// isp ignores scale; waxman maps scale 1.0 to 400 nodes.
func Build(kind string, scale float64, seed int64) (*graph.Graph, error) {
	switch kind {
	case "as":
		return PaperAS(seed, scale), nil
	case "isp":
		return PaperISP(seed), nil
	case "internet":
		return PaperInternet(seed, scale), nil
	case "waxman":
		n := int(400 * scale)
		if n < 16 {
			n = 16
		}
		return Waxman(n, 0.8, 0.5, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (want one of %v)", kind, Kinds)
	}
}
