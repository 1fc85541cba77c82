package sim

import (
	"reflect"
	"testing"

	"rbpc/internal/graph"
)

// line builds the path graph 0-1-2-...-(n-1) and returns it with its edge
// IDs in order.
func line(n int) (*graph.Graph, []graph.EdgeID) {
	g := &graph.Graph{}
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	edges := make([]graph.EdgeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1))
	}
	return g, edges
}

// TestFloodHopsLine: on a line, the flood front for a middle link spreads
// one hop per link outward from the two adjacent routers.
func TestFloodHopsLine(t *testing.T) {
	g, edges := line(6) // 0-1-2-3-4-5, fail 2-3
	e := edges[2]
	fv := graph.FailEdges(g, e)
	hops := FloodHops(fv, g.Edge(e))
	want := []int{2, 1, 0, 0, 1, 2}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("FloodHops = %v, want %v", hops, want)
	}
}

// TestFloodHopsPartition: failing the only link of a 2-node graph leaves
// each endpoint at hop 0 (it detects locally) but the flood cannot cross;
// on a line, failing an end link still reaches everyone through the
// surviving side.
func TestFloodHopsPartition(t *testing.T) {
	g := &graph.Graph{}
	g.AddNode()
	g.AddNode()
	g.AddNode() // isolated third router
	e := g.AddEdge(0, 1, 1)
	fv := graph.FailEdges(g, e)
	hops := FloodHops(fv, g.Edge(e))
	want := []int{0, 0, -1}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("FloodHops = %v, want %v", hops, want)
	}
}

// TestFloodHopsRoutesAroundOtherFailures: with a second link also down,
// the flood must detour around it — the announcement travels over
// surviving links only.
func TestFloodHopsRoutesAroundOtherFailures(t *testing.T) {
	// Square 0-1-2-3-0; fail 0-1 and also 1-2: router 1 only hears the
	// 0-1 LSA directly (hop 0); router 2 hears it via 3 (0->3->2).
	g := &graph.Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	fv := graph.FailEdges(g, e01, e12)
	hops := FloodHops(fv, g.Edge(e01))
	want := []int{0, 0, 2, 1}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("FloodHops = %v, want %v", hops, want)
	}
}

// TestFloodHopsDeterministic: same inputs, same front.
func TestFloodHopsDeterministic(t *testing.T) {
	g, edges := line(9)
	fv := graph.FailEdges(g, edges[4])
	h1 := FloodHops(fv, g.Edge(edges[4]))
	h2 := FloodHops(fv, g.Edge(edges[4]))
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("FloodHops is not deterministic")
	}
}
