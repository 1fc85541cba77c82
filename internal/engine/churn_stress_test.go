package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

// TestChurnStress is the torn-snapshot hunt: reader goroutines hammer
// Query while the writer walks a churn schedule, and every answer is
// validated against the exact epoch it was served from — the route must
// survive that epoch's failed-set, chain src to dst, cost the true
// post-failure shortest distance, and (sampled) actually deliver a packet
// on that epoch's forwarding plane. Any cross-epoch tearing (a route read
// against a different epoch's failure state) fails one of these checks.
// Run it under -race; scripts/verify.sh does.
func TestChurnStress(t *testing.T) {
	g := topology.Waxman(24, 0.8, 0.5, 17)
	e, _ := newEngine(t, g, Config{})

	events := failure.ChurnSchedule(g, 120, 3, rand.New(rand.NewSource(23)))

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		validate = func(t *testing.T, res Result, rng *rand.Rand) {
			snap := res.Snap
			fv := snap.View()
			if res.Route == nil {
				if res.Src != res.Dst && snap.Oracle().Dist(res.Src, res.Dst) != spath.Unreachable {
					t.Errorf("epoch %d: %d->%d reported unroutable but connected",
						snap.Epoch(), res.Src, res.Dst)
				}
				return
			}
			at := res.Src
			for _, l := range res.Route.LSPs {
				if l.Path.Nodes[0] != at {
					t.Errorf("epoch %d: %d->%d concatenation breaks at %d", snap.Epoch(), res.Src, res.Dst, at)
					return
				}
				if !paths.Survives(l.Path, fv) {
					t.Errorf("epoch %d: %d->%d rides a dead link (failed %v)",
						snap.Epoch(), res.Src, res.Dst, snap.Failed())
					return
				}
				at = l.Path.Nodes[len(l.Path.Nodes)-1]
			}
			if at != res.Dst {
				t.Errorf("epoch %d: %d->%d concatenation ends at %d", snap.Epoch(), res.Src, res.Dst, at)
				return
			}
			if want := snap.Oracle().Dist(res.Src, res.Dst); res.Route.Cost != want {
				t.Errorf("epoch %d: %d->%d cost %v, post-failure shortest %v",
					snap.Epoch(), res.Src, res.Dst, res.Route.Cost, want)
				return
			}
			// Sampled end-to-end forwarding on the epoch's own data plane.
			if rng.Intn(16) == 0 {
				pkt, err := snap.Send(res.Src, res.Dst)
				if err != nil || pkt.At != res.Dst {
					t.Errorf("epoch %d: %d->%d forwarding failed: %v (%v)",
						snap.Epoch(), res.Src, res.Dst, pkt, err)
				}
			}
		}
	)

	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				src := graph.NodeID(rng.Intn(g.Order()))
				dst := graph.NodeID(rng.Intn(g.Order()))
				if src == dst {
					continue
				}
				validate(t, e.Query(src, dst), rng)
				queries.Add(1)
			}
		}(int64(r) + 100)
	}

	// Writer: walk the schedule, flushing every few events so readers see
	// many distinct epochs.
	for i, ev := range events {
		if ev.Repair {
			e.Repair(ev.Edge)
		} else {
			e.Fail(ev.Edge)
		}
		if i%4 == 3 {
			e.Flush()
		}
	}
	e.Flush()
	stop.Store(true)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	st := e.Stats()
	if st.Epochs == 0 {
		t.Fatal("no epochs published under churn")
	}
	t.Logf("served %d validated queries over %d epochs (cache: %d hits / %d misses)",
		queries.Load(), st.Epochs, st.PlanCacheHits, st.PlanCacheMiss)
}
