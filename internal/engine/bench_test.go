package engine

import (
	"math/rand"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

var routeSink *Route

// BenchmarkSnapshotRoute isolates the read cost of the snapshot layout —
// overlay first, canonical fallback — from the queue, the metrics and the
// pipeline around it, on the benchmark's topology (the AS stand-in at
// scale 0.05). pristine reads through the nil overlay; three-down holds
// three links down, as the benchmark's saturation phase does, and reads
// the sources that then own an overlay row: hit asks for destinations the
// row overrides, miss for destinations it does not, which is what almost
// every query of such a source is.
func BenchmarkSnapshotRoute(b *testing.B) {
	g := topology.PaperAS(1, 0.05)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(sys.Export(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	pristine := e.Snapshot()
	for _, k := range []int{1, 3, 5} {
		e.Fail(graph.EdgeID(k * g.Size() / 6))
	}
	e.Flush()
	down := e.Snapshot()

	var hit, miss []rbpc.Pair
	for s, row := range down.over {
		if row == nil {
			continue
		}
		src := graph.NodeID(s)
		for d := 0; d < g.Order(); d++ {
			dst := graph.NodeID(d)
			if _, ok := row.get(dst); ok {
				hit = append(hit, rbpc.Pair{Src: src, Dst: dst})
			} else if dst != src {
				miss = append(miss, rbpc.Pair{Src: src, Dst: dst})
			}
		}
	}
	if len(hit) == 0 || len(miss) == 0 {
		b.Fatalf("three links down left %d overridden and %d canonical pairs to read", len(hit), len(miss))
	}

	run := func(name string, snap *Snapshot, pairs []rbpc.Pair) {
		b.Run(name, func(b *testing.B) {
			if a := testing.AllocsPerRun(100, func() { routeSink = snap.Route(pairs[0].Src, pairs[0].Dst) }); a != 0 {
				b.Fatalf("Snapshot.Route allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				routeSink = snap.Route(pairs[j].Src, pairs[j].Dst)
				if j++; j == len(pairs) {
					j = 0
				}
			}
		})
	}
	run("pristine", pristine, miss)
	run("three-down/hit", down, hit)
	run("three-down/miss", down, miss)
}

// BenchmarkEngineQuery measures the steady-state lock-free read path under
// parallel load, with a failure in place so answers cross the COW rows.
func BenchmarkEngineQuery(b *testing.B) {
	g := topology.Waxman(64, 0.8, 0.5, 13)
	e, _ := newEngine(b, g, Config{})
	e.Fail(0)
	e.Fail(3)
	e.Flush()

	n := uint64(g.Order())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			src := graph.NodeID(i % n)
			dst := graph.NodeID((i*7 + 3) % n)
			e.Query(src, dst)
		}
	})
}

// BenchmarkEpochBuild measures writer-side epoch publication: cold (every
// failed-set new) vs hot (plans cached from a prior pass over the same
// schedule).
func BenchmarkEpochBuild(b *testing.B) {
	g := topology.Waxman(64, 0.8, 0.5, 29)
	events := failure.ChurnSchedule(g, 64, 3, rand.New(rand.NewSource(11)))

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, _ := newEngine(b, g, Config{})
			b.StartTimer()
			for _, ev := range events {
				if ev.Repair {
					e.Repair(ev.Edge)
				} else {
					e.Fail(ev.Edge)
				}
				e.Flush()
			}
			b.StopTimer()
			e.Close()
			b.StartTimer()
		}
	})
	b.Run("hot", func(b *testing.B) {
		e, _ := newEngine(b, g, Config{})
		// Prime the plan cache with one full pass.
		for _, ev := range events {
			if ev.Repair {
				e.Repair(ev.Edge)
			} else {
				e.Fail(ev.Edge)
			}
		}
		e.Flush()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ev := range events {
				if ev.Repair {
					e.Repair(ev.Edge)
				} else {
					e.Fail(ev.Edge)
				}
				e.Flush()
			}
		}
	})
}
