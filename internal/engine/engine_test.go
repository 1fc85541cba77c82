package engine

import (
	"errors"
	"fmt"
	"math"
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
	"rbpc/internal/mpls"
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

// sameByID reports whether two answers of engines over different
// provisions of one graph agree: both nil, or the same scheme, cost bits and
// walk, over LSPs with the same IDs and paths.
func sameByID(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Via == b.Via && math.Float64bits(a.Cost) == math.Float64bits(b.Cost) && a.Path.Equal(b.Path) &&
		slices.EqualFunc(a.LSPs, b.LSPs, func(x, y *mpls.LSP) bool { return x.ID == y.ID && x.Path.Equal(y.Path) })
}

// sameEpoch reports how a write-side engine's epoch differs from a full
// engine's: its failed-set and phase, every pair's entry in the overlay, the
// rows the transition began with, the local plan and the canonical table,
// what it serves, and its patches, named by LSP ID.
func sameEpoch(full, write *Snapshot) error {
	if full.epoch != write.epoch || !slices.Equal(full.failed, write.failed) || full.srcReady != write.srcReady || full.maxHorizon != write.maxHorizon {
		return fmt.Errorf("epoch %d (failed %v, phase two %v) against %d (failed %v, phase two %v)",
			full.epoch, full.failed, full.srcReady, write.epoch, write.failed, write.srcReady)
	}
	n := graph.NodeID(len(full.canon.at))
	for src := graph.NodeID(0); src < n; src++ {
		for dst := graph.NodeID(0); dst < n; dst++ {
			a, aok := rowsGet(full.over, src, dst)
			b, bok := rowsGet(write.over, src, dst)
			c, cok := rowsGet(full.preOver, src, dst)
			d, dok := rowsGet(write.preOver, src, dst)
			lf, lfok := full.LocalRoute(src, dst)
			lw, lwok := write.LocalRoute(src, dst)
			if aok != bok || cok != dok || lfok != lwok || !sameByID(a, b) || !sameByID(c, d) || !sameByID(lf, lw) ||
				!sameByID(full.canon.route(src, dst), write.canon.route(src, dst)) || !sameByID(full.Route(src, dst), write.Route(src, dst)) {
				return fmt.Errorf("epoch %d (failed %v): pair %d->%d: the rows differ (overlay %v/%v, local %v/%v, served %v against %v)",
					full.epoch, full.failed, src, dst, aok, bok, lfok, lwok, full.Route(src, dst), write.Route(src, dst))
			}
		}
	}
	fp, wp := full.patch.Patches(), write.patch.Patches()
	if !slices.EqualFunc(fp, wp, func(x, y mpls.ILMPatch) bool {
		return x.Router == y.Router && x.Crossing.ID == y.Crossing.ID && x.Hop == y.Hop && x.Resume == y.Resume &&
			slices.EqualFunc(x.Splice, y.Splice, func(l, m *mpls.LSP) bool { return l.ID == m.ID })
	}) {
		return fmt.Errorf("epoch %d (failed %v): %d patches, the write side's %d differ", full.epoch, full.failed, len(fp), len(wp))
	}
	return nil
}

// TestWriteSideMatchesFullEngine: an engine builds every scheme's plan,
// patches included, from LSP IDs alone, so over a write-side provision
// (rbpc.WriteProvision: label-less records, no network) it publishes, epoch
// for epoch under one churn schedule, what an engine over the full
// provision of the same graph does — plan rows, routes, costs and patches by
// LSP ID. The write side's Send answers ErrNoDataPlane; the full side's
// delivers. Local-scheme epochs must patch some
// row, or the comparison proved nothing.
func TestWriteSideMatchesFullEngine(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 10
	}
	for _, tp := range []struct {
		name string
		g    *graph.Graph
	}{{"triangle", detourTriangle()}, {"as", topology.PaperAS(1, 0.05)}} {
		cfg := rbpc.Config{EdgeLSPs: true}
		write, err := rbpc.WriteProvision(tp.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rbpc.NewSystem(tp.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		events := failure.ChurnSchedule(tp.g, steps, 3, rand.New(rand.NewSource(31)))
		for _, sch := range Schemes() {
			t.Run(tp.name+"/"+sch.String(), func(t *testing.T) {
				var fulls, writes []*Snapshot
				build := func(p rbpc.Provision, into *[]*Snapshot) *Engine {
					e, err := New(p, Config{Scheme: sch, OnEpoch: func(s *Snapshot) { *into = append(*into, s) }})
					if err != nil {
						t.Fatalf("New over the %v provision: %v", p.Net != nil, err)
					}
					t.Cleanup(e.Close)
					*into = append(*into, e.Snapshot())
					return e
				}
				fe, we := build(sys.Export(), &fulls), build(write, &writes)
				patched := 0
				for i := 0; i < len(events); {
					burst := 1 + i%3 // single events and bursts of two and three
					burst = min(burst, len(events)-i)
					fe.ApplyEvents(events[i : i+burst])
					we.ApplyEvents(events[i : i+burst])
					i += burst
					fe.Flush()
					we.Flush()
				}
				if len(fulls) != len(writes) {
					t.Fatalf("the full engine published %d epochs, the write side %d", len(fulls), len(writes))
				}
				for k := range fulls {
					if err := sameEpoch(fulls[k], writes[k]); err != nil {
						t.Fatal(err)
					}
					patched += writes[k].patch.Len()
				}
				if (patched > 0) != (sch != SchemeSource) {
					t.Fatalf("%d patches over %d epochs", patched, len(writes))
				}
				last := writes[len(writes)-1]
				for src := graph.NodeID(0); src < graph.NodeID(tp.g.Order()); src++ {
					for dst := graph.NodeID(0); dst < graph.NodeID(tp.g.Order()); dst++ {
						if src == dst || last.Route(src, dst) == nil {
							continue
						}
						if _, err := last.Send(src, dst); !errors.Is(err, ErrNoDataPlane) {
							t.Fatalf("write side: Send(%d, %d) = %v, want ErrNoDataPlane", src, dst, err)
						}
						if pkt, err := fulls[len(fulls)-1].Send(src, dst); err != nil || pkt.At != dst {
							t.Fatalf("full side: Send(%d, %d) = %v, %v", src, dst, pkt, err)
						}
						return
					}
				}
				t.Fatal("no pair is routable at the last epoch")
			})
		}
	}
}
