package rbpc

import (
	"strings"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
	"rbpc/internal/verify"
)

// baseLSPsInStep checks the export's by-position LSP table against the base
// set it is appended in lockstep with: entry i is the LSP established for
// base path i, the one the string-keyed registry holds for that path.
func baseLSPsInStep(t *testing.T, s *System, tag string) {
	t.Helper()
	p := s.Export()
	if len(p.BaseLSPs) != p.Base.Len() {
		t.Fatalf("%s: %d LSPs for %d base paths", tag, len(p.BaseLSPs), p.Base.Len())
	}
	for i, bp := range p.Base.All() {
		if l := p.BaseLSPs[i]; l == nil || !l.Path.Equal(bp) || l != p.LSPs[bp.Key()] {
			t.Fatalf("%s: base path %d (%v) is not at its position in the LSP table", tag, i, bp)
		}
	}
	if err := p.Servable(); (err == nil) != p.Base.EdgeComplete() {
		t.Fatalf("%s: Servable() = %v on a base set with EdgeComplete() = %v", tag, err, p.Base.EdgeComplete())
	}
}

// TestServableRequiresExactWeights: the serving stack's door refuses a graph
// whose path sums are not exact in a float64 — a weight that is not a
// positive integer value, or a total past 2^53 — naming the link or the
// total, while the offline System provisions and restores over it all the
// same; integer weights of any size below the total pass.
func TestServableRequiresExactWeights(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights [3]float64 // a triangle's links
		refuse  string     // "" = servable
	}{
		{"unit", [3]float64{1, 1, 1}, ""},
		{"integers", [3]float64{3, 40, 1 << 40}, ""},
		{"total-at-2^53", [3]float64{1 << 52, 1 << 51, 1 << 51}, ""},
		{"fraction", [3]float64{1, 2.5, 1}, "link 1 (1-2) has weight 2.5"},
		{"below-one", [3]float64{0.5, 1, 1}, "link 0 (0-1) has weight 0.5"},
		{"total-past-2^53", [3]float64{1 << 52, 1 << 52, 2}, "total 9.007199254740994e+15"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(3)
			g.AddEdge(0, 1, tc.weights[0])
			g.AddEdge(1, 2, tc.weights[1])
			g.AddEdge(2, 0, tc.weights[2])
			s, err := NewSystem(g, DefaultConfig())
			if err != nil {
				t.Fatalf("the offline System refused the graph: %v", err)
			}
			err = s.Export().Servable()
			switch {
			case tc.refuse == "" && err != nil:
				t.Fatalf("Servable() = %v, want nil", err)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Fatalf("Servable() = %v, want an error naming %q", err, tc.refuse)
			}
			s.FailLink(0) // the System restores over any weights
			mustDeliver(t, s, 0, 1)
		})
	}
}

func TestAddLinkImprovesRoutes(t *testing.T) {
	// A line 0-1-2-3-4: 0->4 takes 4 hops. Add a shortcut 0-4.
	s, err := NewSystem(topology.Line(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pkt := mustDeliver(t, s, 0, 4); pkt.Hops != 4 {
		t.Fatalf("pre-growth hops = %d", pkt.Hops)
	}
	baseLSPsInStep(t, s, "provisioned")
	id, err := s.AddLink(0, 4, 1)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	baseLSPsInStep(t, s, "grown")
	pkt := mustDeliver(t, s, 0, 4)
	if pkt.Hops != 1 {
		t.Errorf("post-growth hops = %d, want 1", pkt.Hops)
	}
	// Unimproved pairs keep their routes.
	if pkt := mustDeliver(t, s, 1, 2); pkt.Hops != 1 {
		t.Errorf("1->2 disturbed: %d hops", pkt.Hops)
	}
	// The new link participates in restoration like any other.
	mid, _ := s.Graph().FindEdge(1, 2)
	s.FailLink(mid)
	pkt = mustDeliver(t, s, 1, 2)
	usedNew := false
	for i := 1; i < len(pkt.Trace); i++ {
		e, _ := s.Graph().FindEdge(pkt.Trace[i-1], pkt.Trace[i])
		if e == id {
			usedNew = true
		}
	}
	if !usedNew {
		t.Errorf("restoration 1->2 did not use the new shortcut: %v", pkt.Trace)
	}
	// Tables stay sound throughout.
	if rep := verify.CheckAll(s.Net()); !rep.Clean() {
		t.Errorf("tables dirty after growth+failure: %v", rep)
	}
}

func TestAddLinkDuringFailure(t *testing.T) {
	// A partitioned line is healed by a new link: unroutable pairs come
	// back automatically.
	s, err := NewSystem(topology.Line(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := s.Graph().FindEdge(1, 2)
	s.FailLink(mid)
	if _, err := s.Net().SendIP(0, 3); err == nil {
		t.Fatal("partition not effective")
	}
	if _, err := s.AddLink(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	pkt := mustDeliver(t, s, 0, 3)
	if pkt.Hops != 1 {
		t.Errorf("healed route hops = %d", pkt.Hops)
	}
	// 1 -> 2 must also be routable again: 1-0-3-2.
	mustDeliver(t, s, 1, 2)
}

func TestAddLinkInvalidatesPlans(t *testing.T) {
	g := topology.Ring(5)
	s, err := NewSystem(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.PrecomputeFailoverPlans()
	if s.PlannedUpdates(0) == 0 {
		t.Fatal("no plan before growth")
	}
	if _, err := s.AddLink(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if s.PlannedUpdates(0) != 0 {
		t.Error("stale plans survived topology growth")
	}
	// Precomputed failover works again after recomputation.
	s.PrecomputeFailoverPlans()
	e, _ := g.FindEdge(0, 1)
	if !s.FailLinkPrecomputed(e) {
		t.Error("replanned failover missing")
	}
	mustDeliver(t, s, 0, 1)
}

func TestAddLinkNoSignalingForUnaffectedPairs(t *testing.T) {
	// Growth provisions only the improved paths: a link that shortcuts
	// nothing adds exactly the edge LSPs.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	s, err := NewSystem(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Net().NumLSPs()
	// A parallel twin of an existing link improves no pair.
	if _, err := s.AddLink(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	after := s.Net().NumLSPs()
	if after-before != 2 {
		t.Errorf("added %d LSPs, want 2 (the edge pair)", after-before)
	}
}
