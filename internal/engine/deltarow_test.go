package engine

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
	"rbpc/internal/topology"
)

// TestOverlayMatchesFullRebuild churns an incremental engine and a
// FullRebuild engine in lockstep and demands bit-identical snapshots
// after every event: the incremental engine's overlay is the previous
// epoch's rows with the touched sources replaced on plan-cache misses and
// the cached rows on hits, the reference's the rows of a from-scratch plan
// only. Every served cost is also held to the epoch oracle's distance,
// which neither build feeds, both engines' Send to the routes they serve,
// and every component of every overlay route to the provision's own LSP for
// its path (overlayHoldsProvisionedLSPs).
func TestOverlayMatchesFullRebuild(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	inc, incSys := newEngine(t, g, Config{})
	ref, refSys := newEngine(t, g, Config{FullRebuild: true})
	incReg, refReg := incSys.Export().LSPs, refSys.Export().LSPs
	n := g.Order()

	compare := func(tag string) {
		t.Helper()
		inc.Flush()
		ref.Flush()
		snap := inc.Snapshot()
		snapsEqualBitwise(t, ref.Snapshot(), snap, n, tag)
		sendDeliversServed(t, snap, tag+", incremental")
		sendDeliversServed(t, ref.Snapshot(), tag+", reference")
		overlayHoldsProvisionedLSPs(t, snap, incReg, tag+", incremental")
		overlayHoldsProvisionedLSPs(t, ref.Snapshot(), refReg, tag+", reference")
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				src, dst := graph.NodeID(s), graph.NodeID(d)
				dist := snap.Oracle().Dist(src, dst)
				rt := snap.Route(src, dst)
				if (rt == nil) != (dist == spath.Unreachable) {
					t.Fatalf("%s: %d->%d routable %v, oracle distance %v", tag, s, d, rt != nil, dist)
				}
				if rt != nil && math.Float64bits(rt.Cost) != math.Float64bits(dist) {
					t.Fatalf("%s: %d->%d cost %v, oracle distance %v", tag, s, d, rt.Cost, dist)
				}
			}
		}
	}

	compare("initial")
	rng := rand.New(rand.NewSource(11))
	edges := g.Edges()
	down := map[graph.EdgeID]bool{}
	for step := 0; step < 30; step++ {
		e := edges[rng.Intn(len(edges))].ID
		if down[e] {
			delete(down, e)
			inc.Repair(e)
			ref.Repair(e)
		} else if len(down) < 3 {
			down[e] = true
			inc.Fail(e)
			ref.Fail(e)
		}
		compare("churn")
	}
	if st := inc.Stats().Incremental; st.PairsReused == 0 || st.FullRebuilds != 0 {
		t.Fatalf("incremental engine did not build incrementally: %+v", st)
	}
}

// overlayHoldsProvisionedLSPs checks what resolution by index must
// preserve: every component of every overlay route is an established LSP of
// the provision — pointer-identical to the entry its path has in the
// string-keyed registry, which is this test's reference (the engine never
// reads it) — and never a value made up for the route.
func overlayHoldsProvisionedLSPs(t *testing.T, snap *Snapshot, reg map[string]*mpls.LSP, tag string) {
	t.Helper()
	for src, row := range snap.over {
		dsts, routes := row.entries()
		for i, rt := range routes {
			if rt == nil {
				continue
			}
			for j, l := range rt.LSPs {
				if reg[l.Path.Key()] != l {
					t.Fatalf("%s: %d->%d component %d (%v) is not the provision's LSP for that path", tag, src, dsts[i], j, l.Path)
				}
			}
		}
	}
}

// TestOverlayNilAtRest: a snapshot in which no source diverges carries a
// nil overlay — pristine, and every repair back to it — so with every
// source hot its resident bytes equal the dense figure exactly, and the
// wire round-trips the nil overlay as nil.
func TestOverlayNilAtRest(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	e, sys := newEngine(t, g, Config{})
	dec, err := NewSnapDecoder(sys.Export())
	if err != nil {
		t.Fatal(err)
	}
	atRest := func(tag string) {
		t.Helper()
		snap := e.Snapshot()
		if snap.over != nil {
			t.Fatalf("%s: overlay not nil at rest", tag)
		}
		resident, dense := snap.RowBytes()
		if resident != dense {
			t.Fatalf("%s: resident %d bytes, dense %d", tag, resident, dense)
		}
		if st := e.Stats(); st.RowBytes != resident || st.DenseRowBytes != dense {
			t.Fatalf("%s: stats row bytes %d/%d disagree with snapshot %d/%d",
				tag, st.RowBytes, st.DenseRowBytes, resident, dense)
		}
		buf, err := snap.AppendWire(nil)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", tag, err)
		}
		if got.over != nil {
			t.Fatalf("%s: nil overlay decoded as non-nil", tag)
		}
		snapsEqualBitwise(t, snap, got, g.Order(), tag)
	}

	atRest("pristine")
	for _, ed := range []graph.EdgeID{0, 3, 7} {
		e.Fail(ed)
		e.Flush()
	}
	snap := e.Snapshot()
	if snap.over == nil {
		t.Fatal("three links down but no source diverges")
	}
	if resident, dense := snap.RowBytes(); resident <= dense {
		t.Fatalf("three links down: resident %d bytes does not charge the overlay (dense %d)", resident, dense)
	}
	// Repair in a different order than the failures, one epoch each: {0,7}
	// is a new failed-set (a merge), {0} and pristine are cached plans.
	for _, ed := range []graph.EdgeID{3, 7, 0} {
		e.Repair(ed)
		e.Flush()
	}
	atRest("repaired")
}

// TestPlanRowGet is the property test of the overlay row lookup and its
// one-word miss filter: over random sorted rows — including destinations
// at and above 64, which alias lower ones in the mask — every member is
// found with its own route, every non-member misses, and a non-member
// whose mask bit is set (an alias of a member) still misses.
func TestPlanRowGet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const universe = 200
	aliased := 0
	for trial := 0; trial < 200; trial++ {
		member := map[graph.NodeID]*Route{}
		for k := rng.Intn(12) + 1; k > 0; k-- {
			member[graph.NodeID(rng.Intn(universe))] = &Route{}
		}
		var dsts []graph.NodeID
		var routes []*Route
		for d := graph.NodeID(0); d < universe; d++ {
			if rt, ok := member[d]; ok {
				dsts, routes = append(dsts, d), append(routes, rt)
			}
		}
		row := newPlanRow(dsts, routes)
		for d := graph.NodeID(0); d < universe; d++ {
			want, in := member[d]
			if rt, ok := row.get(d); ok != in || rt != want {
				t.Fatalf("trial %d: get(%d) = (%p, %v), want (%p, %v); row %v", trial, d, rt, ok, want, in, dsts)
			}
			if !in && row.mask&(1<<(uint(d)&63)) != 0 {
				aliased++
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no mask-positive non-member was exercised")
	}
	if newPlanRow(nil, nil) != nil {
		t.Fatal("empty row is not the nil row")
	}
}

// TestDeltaRowsColdSource checks that a source outside the provisioned
// hot set is reported non-materialized and answers nil.
func TestDeltaRowsColdSource(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 2)
	sys, err := rbpc.NewSystem(g, rbpc.Config{
		SubpathClosure: true, EdgeLSPs: true,
		Sources: []graph.NodeID{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sys.Export(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	s := e.Snapshot()
	if !s.Materialized(0) {
		t.Fatal("hot source 0 not materialized")
	}
	if s.Materialized(9) {
		t.Fatal("cold source 9 claims materialization")
	}
	if rt := e.Query(9, 3).Route; rt != nil {
		t.Fatal("cold source answered from rows")
	}
	if rt := e.Query(0, 9).Route; rt == nil {
		t.Fatal("hot source unroutable")
	}
	// 3 of 12 sources materialized: resident bytes must undercut the
	// dense all-pairs matrix by a wide margin.
	resident, dense := s.RowBytes()
	if resident*2 >= dense {
		t.Fatalf("hot-set resident %d bytes, dense %d — expected under half", resident, dense)
	}
}

// TestPlanCacheClock unit-tests the bounded CLOCK cache: capacity is
// enforced, the pristine plan survives eviction, recently-referenced
// entries survive one hand pass.
func TestPlanCacheClock(t *testing.T) {
	pc := newPlanCache(2)
	mk := func(key string) *plan { return &plan{key: key} }

	if _, ok := pc.get(""); !ok {
		t.Fatal("pristine plan missing")
	}
	pc.put(mk("1"))
	pc.put(mk("2"))
	if pc.size() != 3 { // pristine + 2
		t.Fatalf("size %d, want 3", pc.size())
	}

	// Insert "3" at capacity: both residents carry reference bits, so the
	// hand's first lap clears them and the second lap reclaims slot 0 —
	// "1" goes, "2" survives with its bit cleared.
	pc.put(mk("3"))
	if pc.size() != 3 {
		t.Fatalf("size %d after eviction, want 3", pc.size())
	}
	if _, ok := pc.get(""); !ok {
		t.Fatal("pristine plan evicted")
	}
	if _, ok := pc.get("1"); ok {
		t.Fatal("slot-0 entry 1 survived a full clearing lap")
	}
	if _, ok := pc.get("3"); !ok {
		t.Fatal("fresh entry 3 missing")
	}
	// "3" holds a reference bit (set on insert and the get above); "2"'s
	// was cleared by the sweep. The next insert must evict "2" and keep "3".
	pc.put(mk("4"))
	if _, ok := pc.get("3"); !ok {
		t.Fatal("referenced entry 3 evicted before unreferenced 2")
	}
	if _, ok := pc.get("2"); ok {
		t.Fatal("unreferenced entry 2 survived over referenced 3")
	}
	if _, ok := pc.get("4"); !ok {
		t.Fatal("fresh entry 4 missing")
	}

	// Re-putting an existing key must not grow the ring.
	pc.put(mk("3"))
	if pc.size() != 3 {
		t.Fatalf("size %d after duplicate put, want 3", pc.size())
	}

	// Unbounded cache never evicts.
	un := newPlanCache(0)
	for i := 0; i < 64; i++ {
		un.put(mk(string(rune('a' + i))))
	}
	if un.size() != 65 {
		t.Fatalf("unbounded cache size %d, want 65", un.size())
	}
}

// TestPlanCacheBoundedChurn checks a bounded cache under real churn still
// yields correct answers (evicted plans are just recomputed).
func TestPlanCacheBoundedChurn(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	bounded, _ := newEngine(t, g, Config{PlanCacheCap: 2})
	ref, _ := newEngine(t, g, Config{})

	edges := g.Edges()
	rng := rand.New(rand.NewSource(5))
	down := map[graph.EdgeID]bool{}
	for step := 0; step < 40; step++ {
		e := edges[rng.Intn(len(edges))].ID
		if down[e] {
			delete(down, e)
			bounded.Repair(e)
			ref.Repair(e)
		} else if len(down) < 3 {
			down[e] = true
			bounded.Fail(e)
			ref.Fail(e)
		}
	}
	bounded.Flush()
	ref.Flush()
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			a := bounded.Query(graph.NodeID(s), graph.NodeID(d)).Route
			b := ref.Query(graph.NodeID(s), graph.NodeID(d)).Route
			if (a == nil) != (b == nil) {
				t.Fatalf("%d->%d routable mismatch under bounded cache", s, d)
			}
			if a != nil && math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
				t.Fatalf("%d->%d cost %v != %v under bounded cache", s, d, a.Cost, b.Cost)
			}
		}
	}
}

// TestDrainWaitsForSubmitted checks Drain blocks until every accepted
// async query has been answered.
func TestDrainWaitsForSubmitted(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	var answered atomic.Int64
	e, _ := newEngine(t, g, Config{OnResult: func(Result) { answered.Add(1) }})

	var pairs []rbpc.Pair
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			if s != d {
				pairs = append(pairs, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
			}
		}
	}
	accepted := 0
	for i := 0; i < 5; i++ {
		accepted += e.SubmitBatch(pairs)
	}
	e.Drain()
	if got := answered.Load(); got != int64(accepted) {
		t.Fatalf("accepted %d but only %d answered when Drain returned", accepted, got)
	}
}

// TestSubmitBatchAnswersInOrder checks the chunked serving of a burst: a
// batch that is neither a multiple of ServeChunk nor shorter than it is
// answered pair by pair, in order, with exactly the snapshot's routes, and
// the unroutable pairs — self pairs excluded — are counted once each.
func TestSubmitBatchAnswersInOrder(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	var got []Result
	e, _ := newEngine(t, g, Config{Workers: 1, OnResult: func(r Result) { got = append(got, r) }})
	// Cut node 0 off, so that every pair with it at one end is unroutable.
	for _, a := range g.Arcs(0) {
		e.Fail(a.Edge)
	}
	e.Flush()

	var pairs []rbpc.Pair
	for s := 0; s < g.Order(); s++ {
		for d := 0; d < g.Order(); d++ {
			pairs = append(pairs, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
		}
	}
	if len(pairs) <= 2*ServeChunk || len(pairs)%ServeChunk == 0 {
		t.Fatalf("%d pairs do not end in a partial chunk of %d", len(pairs), ServeChunk)
	}
	want := append([]rbpc.Pair(nil), pairs...)
	before := e.Stats()
	if n := e.SubmitBatch(pairs); n != len(want) {
		t.Fatalf("accepted %d of %d", n, len(want))
	}
	e.Drain()
	if len(got) != len(want) {
		t.Fatalf("%d answers for %d pairs", len(got), len(want))
	}
	unroutable := int64(0)
	for i, r := range got {
		if r.Src != want[i].Src || r.Dst != want[i].Dst {
			t.Fatalf("answer %d is for %d->%d, want %v", i, r.Src, r.Dst, want[i])
		}
		if r.Route != r.Snap.Route(r.Src, r.Dst) {
			t.Fatalf("answer %d (%d->%d) is not the snapshot's route", i, r.Src, r.Dst)
		}
		if r.Route == nil && r.Src != r.Dst {
			unroutable++
		}
	}
	after := e.Stats()
	if d := after.Queries - before.Queries; d != int64(len(want)) {
		t.Errorf("Queries rose by %d, want %d", d, len(want))
	}
	if d := after.Unroutable - before.Unroutable; d != unroutable || unroutable != int64(2*(g.Order()-1)) {
		t.Errorf("Unroutable rose by %d, answers say %d, want %d", d, unroutable, 2*(g.Order()-1))
	}
}
