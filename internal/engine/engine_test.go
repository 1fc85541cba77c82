package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

func newEngine(t testing.TB, g *graph.Graph, cfg Config) (*Engine, *rbpc.System) {
	t.Helper()
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sys.Export(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, sys
}

// agreeWithReference compares every pair's engine answer against the rule
// the offline restoration ran, computed here per pair over the failed-set:
// the primary if it survives, else a minimum-cost decomposition over the
// provision's base set (core.DecomposeSparse) — same routability, same
// cost.
func agreeWithReference(t *testing.T, e *Engine, p rbpc.Provision, failed []graph.EdgeID, tag string) {
	t.Helper()
	g := p.Graph
	fv := graph.FailEdges(g, failed...)
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			src, dst := graph.NodeID(s), graph.NodeID(d)
			got := e.Query(src, dst).Route
			var want float64
			routable := true
			if idx, ok := p.Primary(src, dst); ok && paths.Survives(p.BaseLSPs[idx].Path, fv) {
				want = p.BaseLSPs[idx].Path.CostIn(g)
			} else {
				dec, ok := core.DecomposeSparse(p.Base, fv, src, dst)
				routable = ok && len(dec.Components) > 0
				want = dec.Cost(g)
			}
			if (got != nil) != routable {
				t.Fatalf("%s: pair %d->%d routable mismatch: engine %v, reference %v",
					tag, s, d, got != nil, routable)
			}
			if got != nil && got.Cost != want {
				t.Fatalf("%s: pair %d->%d cost %v, reference %v", tag, s, d, got.Cost, want)
			}
		}
	}
}

func TestEngineMatchesSystemUnderChurn(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	e, sys := newEngine(t, g, Config{})
	prov := sys.Export()

	agreeWithReference(t, e, prov, nil, "pristine")

	down := make(map[graph.EdgeID]bool)
	events := failure.ChurnSchedule(g, 40, 3, rand.New(rand.NewSource(5)))
	for i, ev := range events {
		if ev.Repair {
			e.Repair(ev.Edge)
			delete(down, ev.Edge)
		} else {
			e.Fail(ev.Edge)
			down[ev.Edge] = true
		}
		e.Flush()
		var failed []graph.EdgeID
		for ed := range down {
			failed = append(failed, ed)
		}
		slices.Sort(failed)
		if snap := e.Snapshot(); !slices.Equal(snap.Failed(), failed) {
			t.Fatalf("event %d: engine sees %v failed, the schedule %v", i, snap.Failed(), failed)
		}
		agreeWithReference(t, e, prov, failed, "after event")
	}
	// Full schedule drains to pristine.
	if got := e.Snapshot().Failed(); len(got) != 0 {
		t.Fatalf("failures survive full schedule: %v", got)
	}
}

func TestPlanCacheHitsOnRevisitedFailedSet(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	e, _ := newEngine(t, g, Config{})
	ed := graph.EdgeID(0)

	for i := 0; i < 3; i++ {
		e.Fail(ed)
		e.Flush()
		e.Repair(ed)
		e.Flush()
	}
	st := e.Stats()
	// First fail misses; the two re-fails hit. Every repair hits the
	// pre-seeded pristine plan.
	if st.PlanCacheMiss != 1 {
		t.Fatalf("plan cache misses = %d, want 1", st.PlanCacheMiss)
	}
	if st.PlanCacheHits != 5 {
		t.Fatalf("plan cache hits = %d, want 5", st.PlanCacheHits)
	}
	if st.Epochs != 6 {
		t.Fatalf("epochs = %d, want 6", st.Epochs)
	}
}

func TestCoalescedBurstCancelsOut(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 2)
	e, _ := newEngine(t, g, Config{})
	ed := graph.EdgeID(1)

	// Fail+repair in one burst: the failed-set is unchanged, so no epoch
	// may be published.
	e.ApplyEvents([]failure.Event{{Edge: ed}, {Repair: true, Edge: ed}})
	e.Flush()
	if st := e.Stats(); st.Epochs != 0 || st.Epoch != 0 {
		t.Fatalf("cancelled burst published an epoch: %+v", st)
	}
}

// tornBurst returns the first of the bursts' link groups of which failed
// holds some links but not all, nil if there is none.
func tornBurst(failed []graph.EdgeID, groups [][]graph.EdgeID) []graph.EdgeID {
	for _, grp := range groups {
		n := 0
		for _, ed := range grp {
			if slices.Contains(failed, ed) {
				n++
			}
		}
		if n != 0 && n != len(grp) {
			return grp
		}
	}
	return nil
}

// TestBurstsAreAtomic: a burst handed to ApplyEvents is one transition.
// Three disjoint three-link groups are failed and repaired as bursts, with
// no barrier between them, so the writer finds several queued at once; every
// epoch the OnEpoch tap sees must hold all or none of each group's links.
// It runs idle and with four goroutines spinning on runtime.Gosched, which
// moves where the writer gets scheduled between a burst's arrival and its
// publish.
func TestBurstsAreAtomic(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	groups := [][]graph.EdgeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	for _, spinners := range []int{0, 4} {
		t.Run(fmt.Sprintf("spinners=%d", spinners), func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for range spinners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							runtime.Gosched()
						}
					}
				}()
			}
			defer wg.Wait()
			defer close(stop)

			// The tap runs on the writer; Flush orders its writes before the
			// reads below.
			epochs := 0
			var torn error
			e, _ := newEngine(t, g, Config{OnEpoch: func(s *Snapshot) {
				epochs++
				if grp := tornBurst(s.Failed(), groups); grp != nil && torn == nil {
					torn = fmt.Errorf("epoch %d fails %v: part of burst %v", s.Epoch(), s.Failed(), grp)
				}
			}})
			const rounds = 150
			burst := make([]failure.Event, 3)
			for range rounds {
				for _, repair := range []bool{false, true} {
					for _, grp := range groups {
						for i, ed := range grp {
							burst[i] = failure.Event{Repair: repair, Edge: ed}
						}
						e.ApplyEvents(burst) // reused: ApplyEvents copies
					}
					e.Flush() // every group down, or every group up: one epoch at least
				}
			}
			if torn != nil {
				t.Fatal(torn)
			}
			if epochs < 2*rounds || len(e.Snapshot().Failed()) != 0 {
				t.Fatalf("%d epochs published over %d rounds, %v left down", epochs, rounds, e.Snapshot().Failed())
			}
		})
	}
}

func TestUnroutablePair(t *testing.T) {
	// A line graph: failing any edge cuts the pairs across it.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	e, _ := newEngine(t, g, Config{})

	e.Fail(1) // cut 1-2
	e.Flush()
	res := e.Query(0, 3)
	if res.Route != nil {
		t.Fatalf("pair 0->3 routable across a cut: %+v", res.Route)
	}
	if d := e.Dist(0, 3); d != spath.Unreachable {
		t.Fatalf("Dist across cut = %v", d)
	}
	if st := e.Stats(); st.Unroutable == 0 {
		t.Fatal("unroutable counter not incremented")
	}

	e.Repair(1)
	e.Flush()
	if res := e.Query(0, 3); res.Route == nil {
		t.Fatal("pair 0->3 still unroutable after repair")
	}
}

func TestSubmitDrainsToCallback(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 4)
	got := make(chan Result, 64)
	e, _ := newEngine(t, g, Config{Workers: 2, OnResult: func(r Result) { got <- r }})

	const want = 20
	sent := 0
	for d := 1; d <= want; d++ {
		if e.Submit(0, graph.NodeID(d%g.Order())) {
			sent++
		}
	}
	for i := 0; i < sent; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d results arrived", i, sent)
		}
	}
	st := e.Stats()
	if st.Submitted != int64(want) || st.Dropped != int64(want-sent) {
		t.Fatalf("submitted=%d dropped=%d, want %d/%d", st.Submitted, st.Dropped, want, want-sent)
	}
	if st.QueryLatency.Count != int64(sent) {
		t.Fatalf("latency samples = %d, want %d", st.QueryLatency.Count, sent)
	}
}

func TestSnapshotImmutableAcrossEpochs(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 6)
	e, _ := newEngine(t, g, Config{})
	old := e.Snapshot()
	oldRoute := old.Route(0, graph.NodeID(g.Order()-1))

	events := failure.ChurnSchedule(g, 20, 2, rand.New(rand.NewSource(3)))
	e.ApplyEvents(events)
	e.Flush()

	// The pristine snapshot still answers exactly as before.
	if got := old.Route(0, graph.NodeID(g.Order()-1)); got != oldRoute {
		t.Fatal("held snapshot changed under churn")
	}
	if old.Epoch() != 0 || len(old.Failed()) != 0 {
		t.Fatal("held snapshot's identity changed")
	}
}

func TestQueryZeroAllocs(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 8)
	e, _ := newEngine(t, g, Config{})
	e.Fail(0)
	e.Flush()

	n := int(testing.AllocsPerRun(1000, func() {
		e.Query(2, 9)
	}))
	if n != 0 {
		t.Fatalf("Query allocates %d times per op, want 0", n)
	}
}

// detourTriangle is the smallest topology rbpc.Config{} does not provision
// edge-complete: link 0-2 is dearer than the way round, so it is no pair's
// shortest path and only EdgeLSPs gives it a 1-hop base path.
func detourTriangle() *graph.Graph {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	return g
}

// TestNewRequiresEdgeLSPs: the engine and the decoder resolve a component
// by its base-set index and signal nothing, so both refuse at the door a
// provision in which some link has no 1-hop base path, naming the field
// that provisions one; a hot-set provision is edge-complete by construction
// and is accepted.
func TestNewRequiresEdgeLSPs(t *testing.T) {
	bare, err := rbpc.NewSystem(detourTriangle(), rbpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := New(bare.Export(), Config{}); err == nil {
		e.Close()
		t.Fatal("New accepted a provision without EdgeLSPs")
	} else if !strings.Contains(err.Error(), "rbpc.Config.EdgeLSPs") {
		t.Fatalf("New: %v; the error does not name rbpc.Config.EdgeLSPs", err)
	}
	if _, err := NewSnapDecoder(bare.Export()); err == nil || !strings.Contains(err.Error(), "rbpc.Config.EdgeLSPs") {
		t.Fatalf("NewSnapDecoder: error %v, want one naming rbpc.Config.EdgeLSPs", err)
	}

	hot, err := rbpc.NewSystem(detourTriangle(), rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(hot.Export(), Config{})
	if err != nil {
		t.Fatalf("New refused a hot-set provision: %v", err)
	}
	e.Close()
	if _, err := NewSnapDecoder(hot.Export()); err != nil {
		t.Fatalf("NewSnapDecoder refused a hot-set provision: %v", err)
	}
}

// TestNewRefusesLocalSchemesWithoutDataPlane: a local, bypass or hybrid
// engine patches the provision's ILM rows by its LSPs' labels, and a
// provision without a data plane — a write side, whose LSP records carry
// no labels, or an export whose network was dropped — has neither. New
// refuses every non-source scheme there, naming it, instead of building
// patch rows that push label 0; the source scheme, which names LSPs only,
// is built.
func TestNewRefusesLocalSchemesWithoutDataPlane(t *testing.T) {
	g, cfg := detourTriangle(), rbpc.Config{EdgeLSPs: true}
	write, err := rbpc.WriteProvision(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rbpc.NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dropped := sys.Export()
	dropped.Net = nil
	for name, p := range map[string]rbpc.Provision{"write side": write, "dropped network": dropped} {
		for _, sch := range []Scheme{SchemeLocal, SchemeBypass, SchemeHybrid} {
			e, err := New(p, Config{Scheme: sch})
			if err == nil {
				e.Close()
				t.Fatalf("%s: New built a %v engine without a data plane", name, sch)
			}
			if !strings.Contains(err.Error(), sch.String()) || !strings.Contains(err.Error(), "no data plane") {
				t.Fatalf("%s: New: %v; the error does not name the %v scheme and the missing data plane", name, err, sch)
			}
		}
		e, err := New(p, Config{Scheme: SchemeSource})
		if err != nil {
			t.Fatalf("%s: New refused the source scheme: %v", name, err)
		}
		e.Close()
	}
}
