package shard

import (
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// fullASNodes is the paper's full-scale AS graph order (PaperAS at scale
// 1.0) — the source population the ring must balance over.
const fullASNodes = 4746

func TestRingDeterministicAcrossRestarts(t *testing.T) {
	a, err := NewRing(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < fullASNodes; s++ {
		src := graph.NodeID(s)
		if a.Owner(src) != b.Owner(src) {
			t.Fatalf("source %d: owner %d on first build, %d on rebuild", s, a.Owner(src), b.Owner(src))
		}
	}
}

func TestRingRejectsZeroShards(t *testing.T) {
	if _, err := NewRing(0, 0, 0); err == nil {
		t.Fatal("NewRing(0) should fail")
	}
}

func TestRingSeedChangesOwnership(t *testing.T) {
	a, _ := NewRing(4, 0, 1)
	b, _ := NewRing(4, 0, 2)
	moved := 0
	for s := 0; s < fullASNodes; s++ {
		if a.Owner(graph.NodeID(s)) != b.Owner(graph.NodeID(s)) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical ownership — seed is not part of the hash")
	}
}

// TestRingBalanceFullAS asserts every shard's share of the full AS-graph
// source population stays within 10% of even.
func TestRingBalanceFullAS(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		r, err := NewRing(shards, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := r.Counts(fullASNodes)
		mean := float64(fullASNodes) / float64(shards)
		for i, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < -0.10 || dev > 0.10 {
				t.Errorf("shards=%d: shard %d owns %d sources, %.1f%% off the even share %.0f",
					shards, i, c, 100*dev, mean)
			}
		}
	}
}

// TestRingMinimalMovement asserts that growing the ring from N to N+1
// shards only moves sources onto the new shard: a source's owner either
// stays put or becomes N.
func TestRingMinimalMovement(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		old, err := NewRing(n, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := NewRing(n+1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for s := 0; s < fullASNodes; s++ {
			src := graph.NodeID(s)
			was, now := old.Owner(src), grown.Owner(src)
			if was == now {
				continue
			}
			if now != n {
				t.Fatalf("n=%d: source %d moved from shard %d to existing shard %d — not minimal", n, s, was, now)
			}
			moved++
		}
		// The new shard should take roughly its fair slice, 1/(n+1).
		want := float64(fullASNodes) / float64(n+1)
		if f := float64(moved); f < 0.5*want || f > 1.5*want {
			t.Errorf("n=%d: %d sources moved to the new shard, expected about %.0f", n, moved, want)
		}
	}
}

// TestOwnerTableMatchesRing: the table every query reads is the ring it was
// filled from, entry for entry, and slicing a provision through it yields
// the maps slicing through the ring would.
func TestOwnerTableMatchesRing(t *testing.T) {
	const nodes = 2000
	for _, shards := range []int{1, 2, 3, 8} {
		for _, seed := range []uint64{0, 7} {
			for _, vnodes := range []int{0, 64} {
				r, err := NewRing(shards, vnodes, seed)
				if err != nil {
					t.Fatal(err)
				}
				tab := r.Table(nodes)
				if len(tab) != nodes {
					t.Fatalf("table covers %d sources, want %d", len(tab), nodes)
				}
				for s := 0; s < nodes; s++ {
					if got, want := int(tab[s]), r.Owner(graph.NodeID(s)); got != want {
						t.Fatalf("shards=%d seed=%d vnodes=%d: source %d reads owner %d from the table, %d from the ring",
							shards, seed, vnodes, s, got, want)
					}
				}
			}
		}
	}

	g := topology.Waxman(14, 0.8, 0.5, 9)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	for _, shards := range []int{1, 2, 3, 8} {
		r, err := NewRing(shards, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab := r.Table(g.Order())
		total := 0
		for i := 0; i < shards; i++ {
			sp := SliceProvision(p, tab, i)
			total += len(sp.Routes)
			for pr := range p.Routes {
				if _, in := sp.Routes[pr]; in != (r.Owner(pr.Src) == i) {
					t.Fatalf("shards=%d: route %v in shard %d's slice: %v, the ring says %v", shards, pr, i, in, !in)
				}
			}
			for pr := range p.Primaries {
				if _, in := sp.Primaries[pr]; in != (r.Owner(pr.Src) == i) {
					t.Fatalf("shards=%d: primary %v in shard %d's slice: %v, the ring says %v", shards, pr, i, in, !in)
				}
			}
		}
		if total != len(p.Routes) {
			t.Fatalf("shards=%d: the slices hold %d routes of %d", shards, total, len(p.Routes))
		}
	}
}

func TestRingRejectsTooManyShards(t *testing.T) {
	if _, err := NewRing(MaxShards+1, 0, 0); err == nil {
		t.Fatalf("NewRing(%d) should fail: an owner-table entry is one byte", MaxShards+1)
	}
}
