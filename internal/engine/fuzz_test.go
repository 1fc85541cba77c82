package engine

import (
	"math"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

// FuzzBypassPlanValidity drives the ILM bypass-plan builder with random
// topologies and single-link failures and checks the structural contract
// of every plan it emits: each affected pair's answer is a loop-bounded
// walk over surviving links from source to destination whose data-plane
// replay (the canonical stack through the patched ILM rows) terminates at
// the egress in exactly the advertised number of hops; and a nil answer is
// only ever given when the failed link's endpoints really are partitioned
// (for a single failure, Section 4's bridge argument makes edge-bypass
// complete: an affected pair is locally restorable iff it is connected).
func FuzzBypassPlanValidity(f *testing.F) {
	f.Add(int64(1), uint(0))
	f.Add(int64(3), uint(7))
	f.Add(int64(42), uint(13))
	f.Add(int64(7), uint(2))
	f.Fuzz(func(t *testing.T, topoSeed int64, edgePick uint) {
		nodes := 8 + int(uint(topoSeed)%9) // 8..16
		g := topology.Waxman(nodes, 0.8, 0.5, topoSeed)
		if g.Size() == 0 {
			t.Skip("degenerate topology")
		}
		ed := graph.EdgeID(edgePick % uint(g.Size()))

		sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
		if err != nil {
			t.Skip("unprovisionable topology")
		}
		e, err := New(sys.Export(), Config{Scheme: SchemeBypass})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		e.Fail(ed)
		e.Flush()
		snap := e.Snapshot()
		fe := g.Edge(ed)
		bridged := snap.Oracle().Dist(fe.U, fe.V) != spath.Unreachable

		for pr, rt := range localRoutesOf(snap) {
			if rt == nil {
				if bridged {
					t.Fatalf("pair %v unrestorable but failed link %d-%d is not a bridge", pr, fe.U, fe.V)
				}
				if snap.Oracle().Dist(pr.Src, pr.Dst) != spath.Unreachable {
					t.Fatalf("pair %v unrestorable but still connected", pr)
				}
				continue
			}
			if rt.Via != SchemeBypass {
				t.Fatalf("pair %v Via = %v", pr, rt.Via)
			}
			if err := rt.Path.Validate(snap.View()); err != nil {
				t.Fatalf("pair %v bypass path invalid: %v", pr, err)
			}
			if rt.Path.Src() != pr.Src || rt.Path.Dst() != pr.Dst {
				t.Fatalf("pair %v path runs %d->%d", pr, rt.Path.Src(), rt.Path.Dst())
			}
			if got := rt.Path.CostIn(g); math.Abs(got-rt.Cost) > 1e-9 {
				t.Fatalf("pair %v cost %v, path costs %v", pr, rt.Cost, got)
			}
			// Loop bound: a valid bypass walk revisits no link twice in the
			// same epoch (the primary is simple and each splice is simple),
			// so its length is bounded by twice the link count.
			if rt.Path.Hops() > 2*g.Size() {
				t.Fatalf("pair %v bypass walk of %d hops looks like a loop", pr, rt.Path.Hops())
			}
			pkt, err := snap.Send(pr.Src, pr.Dst)
			if err != nil {
				t.Fatalf("pair %v probe: %v", pr, err)
			}
			if pkt.At != pr.Dst {
				t.Fatalf("pair %v probe stranded at %d (label-stack rewrite broken)", pr, pkt.At)
			}
			if pkt.Hops != rt.Path.Hops() {
				t.Fatalf("pair %v probe walked %d hops, plan advertises %d", pr, pkt.Hops, rt.Path.Hops())
			}
		}
	})
}
