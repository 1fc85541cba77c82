package graph_test

import (
	"math/rand"
	"strings"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/spath"
)

// TestValidateRefusesEdgesOutsideTheView: a path naming an edge ID the view
// does not have is an error on each View implementation — the whole graph,
// a failure view and a padded view — not an index panic.
func TestValidateRefusesEdgesOutsideTheView(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	good := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	views := map[string]graph.View{
		"graph":   g,
		"failure": graph.FailEdges(g),
		"padded":  spath.Padded(g, spath.PaddingFor(g)),
	}
	for name, v := range views {
		if err := good.Validate(v); err != nil {
			t.Fatalf("%s: %v refused: %v", name, good, err)
		}
		for _, id := range []graph.EdgeID{7, -1, 3} {
			bad := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, id}}
			err := bad.Validate(v)
			if err == nil || !strings.Contains(err.Error(), "3 edges") {
				t.Fatalf("%s: edge %d validated or misreported: %v", name, id, err)
			}
		}
	}
}

// TestValidateOnGraphMatchesArcScan: on a *Graph, Validate takes the
// endpoint check as proof that an edge is an arc out of the node it is
// left from; a padded view over the same graph asks its arcs. Over random
// walks with random wrong steps, on undirected and directed multigraphs,
// the two agree on every path.
func TestValidateOnGraphMatchesArcScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, directed := range []bool{false, true} {
		n := 8
		g := graph.New(n)
		if directed {
			g = graph.NewDirected(n)
		}
		for i := 0; i < 30; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v, float64(1+rng.Intn(3)))
			}
		}
		scan := spath.Padded(g, 0)
		valid := 0
		for trial := 0; trial < 2000; trial++ {
			p := graph.Path{Nodes: []graph.NodeID{graph.NodeID(rng.Intn(n))}}
			for h := rng.Intn(4); h >= 0; h-- {
				u := p.Dst()
				arcs := g.Arcs(u)
				if len(arcs) == 0 || rng.Intn(5) == 0 {
					p.Edges = append(p.Edges, graph.EdgeID(rng.Intn(g.Size())))
					p.Nodes = append(p.Nodes, graph.NodeID(rng.Intn(n)))
					continue
				}
				a := arcs[rng.Intn(len(arcs))]
				p.Edges = append(p.Edges, a.Edge)
				p.Nodes = append(p.Nodes, a.To)
			}
			got, want := p.Validate(g), p.Validate(scan)
			if (got == nil) != (want == nil) {
				t.Fatalf("directed=%v: %v validates to %v on the graph and %v by its arcs", directed, p, got, want)
			}
			if got == nil {
				valid++
			}
		}
		if valid < 100 || valid > 1900 {
			t.Fatalf("directed=%v: %d of 2000 paths valid: the draw does not exercise both answers", directed, valid)
		}
	}
}
