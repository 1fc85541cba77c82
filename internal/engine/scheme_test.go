package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("teleport"); err == nil {
		t.Fatal("ParseScheme accepted garbage")
	}
	if got := Scheme(99).String(); got != "Scheme(99)" {
		t.Fatalf("Scheme(99).String() = %q", got)
	}
}

func TestNewRejectsUnknownScheme(t *testing.T) {
	g := topology.Waxman(8, 0.8, 0.5, 1)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sys.Export(), Config{Scheme: Scheme(7)}); err == nil {
		t.Fatal("New accepted an out-of-range scheme")
	}
}

// checkLocalAnswer validates one served local answer against the epoch it
// came from: the path is a real walk over surviving links from src to dst,
// the cost is the path's cost, it is at least the true post-failure
// shortest distance, and — the part no bookkeeping can fake — a data-plane
// probe through the patched ILM rows walks exactly that path's length and
// delivers.
func checkLocalAnswer(t *testing.T, e *Engine, src, dst graph.NodeID, rt *Route, wantVia Scheme, tag string) {
	t.Helper()
	snap := e.Snapshot()
	if rt.Via != wantVia {
		t.Fatalf("%s: pair %d->%d Via = %v, want %v", tag, src, dst, rt.Via, wantVia)
	}
	if len(rt.LSPs) != 0 {
		t.Fatalf("%s: local answer carries source-plan LSPs", tag)
	}
	if err := rt.Path.Validate(snap.View()); err != nil {
		t.Fatalf("%s: pair %d->%d path invalid: %v", tag, src, dst, err)
	}
	if rt.Path.Src() != src || rt.Path.Dst() != dst {
		t.Fatalf("%s: pair %d->%d path runs %d->%d", tag, src, dst, rt.Path.Src(), rt.Path.Dst())
	}
	if got := rt.Path.CostIn(e.g); math.Abs(got-rt.Cost) > 1e-9 {
		t.Fatalf("%s: pair %d->%d cost %v but path costs %v", tag, src, dst, rt.Cost, got)
	}
	if dist := snap.Oracle().Dist(src, dst); rt.Cost < dist-1e-9 {
		t.Fatalf("%s: pair %d->%d served cost %v beats shortest distance %v", tag, src, dst, rt.Cost, dist)
	}
	pkt, err := snap.Send(src, dst)
	if err != nil {
		t.Fatalf("%s: pair %d->%d probe: %v", tag, src, dst, err)
	}
	if pkt.At != dst {
		t.Fatalf("%s: pair %d->%d probe stranded at %d", tag, src, dst, pkt.At)
	}
	if pkt.Hops != rt.Path.Hops() {
		t.Fatalf("%s: pair %d->%d probe walked %d hops, served path has %d",
			tag, src, dst, pkt.Hops, rt.Path.Hops())
	}
}

// TestLocalSchemesServeAffectedPairs: under SchemeLocal and SchemeBypass,
// every affected pair is answered by a validated local route (or honestly
// unroutable), unaffected pairs keep their canonical answers bit-for-bit,
// and repairs revert the ILM patches back to canonical forwarding.
func TestLocalSchemesServeAffectedPairs(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		via    Scheme
	}{{SchemeLocal, SchemeLocal}, {SchemeBypass, SchemeBypass}} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			g := topology.Waxman(16, 0.8, 0.5, 3)
			e, _ := newEngine(t, g, Config{Scheme: tc.scheme})
			pristine := e.Snapshot()

			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 25; step++ {
				ed := graph.EdgeID(rng.Intn(g.Size()))
				if len(e.Snapshot().Failed()) >= 3 || rng.Intn(4) == 0 {
					e.Repair(ed)
				} else {
					e.Fail(ed)
				}
				e.Flush()
				snap := e.Snapshot()
				if snap.Scheme() != tc.scheme {
					t.Fatalf("snapshot scheme %v", snap.Scheme())
				}
				localPairs := localRoutesOf(snap)
				for pr, rt := range localPairs {
					if rt == nil {
						if res := e.Query(pr.Src, pr.Dst); res.Route != nil {
							t.Fatalf("unrestorable pair %v served %+v", pr, res.Route)
						}
						continue
					}
					got := e.Query(pr.Src, pr.Dst).Route
					if got != rt {
						t.Fatalf("Query(%v) = %p, local plan holds %p", pr, got, rt)
					}
					checkLocalAnswer(t, e, pr.Src, pr.Dst, rt, tc.via, tc.scheme.String())
				}
				// Unaffected pairs serve the canonical route object itself.
				for s := 0; s < g.Order(); s++ {
					for d := 0; d < g.Order(); d++ {
						pr := rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)}
						if _, affected := localPairs[pr]; affected || s == d {
							continue
						}
						if got, want := snap.Route(pr.Src, pr.Dst), pristine.Route(pr.Src, pr.Dst); got != want {
							t.Fatalf("unaffected pair %v: route %p, canonical %p", pr, got, want)
						}
					}
				}
			}

			// Repair everything: local state must drain to pristine and the
			// data plane must forward canonically again.
			for _, ed := range e.Snapshot().Failed() {
				e.Repair(ed)
			}
			e.Flush()
			snap := e.Snapshot()
			if got := localRoutesOf(snap); len(got) != 0 {
				t.Fatalf("pristine epoch still holds %d local routes", len(got))
			}
			if snap.patch != nil {
				t.Fatalf("pristine epoch still holds %d ILM patch rows", snap.patch.Len())
			}
			for s := 0; s < g.Order(); s++ {
				for d := 0; d < g.Order(); d++ {
					if s == d {
						continue
					}
					src, dst := graph.NodeID(s), graph.NodeID(d)
					if got, want := snap.Route(src, dst), pristine.Route(src, dst); got != want {
						t.Fatalf("post-repair pair %d->%d not canonical", s, d)
					}
					if want := pristine.Route(src, dst); want != nil {
						pkt, err := snap.Send(src, dst)
						if err != nil || pkt.At != dst {
							t.Fatalf("post-repair probe %d->%d: pkt=%+v err=%v", s, d, pkt, err)
						}
					}
				}
			}
		})
	}
}

// fakeClock is an injectable, concurrency-safe test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestHybridSwitchover: with a modeled flood delay and an injected clock,
// a hybrid engine serves the bypass answer the moment the epoch publishes
// and switches each affected pair to the bit-exact source answer once the
// clock passes the source's flood horizon — with no new epoch in between.
func TestHybridSwitchover(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	e, _ := newEngine(t, g, Config{
		Scheme: SchemeHybrid,
		Flood:  FloodConfig{Detect: 10 * time.Millisecond, PerHop: 10 * time.Millisecond},
		Clock:  clk.Now,
	})
	ref, _ := newEngine(t, g, Config{})

	ed := graph.EdgeID(0)
	e.Fail(ed)
	ref.Fail(ed)
	e.Flush()
	ref.Flush()

	snap := e.Snapshot()
	if snap.Scheme() != SchemeHybrid || snap.Converged() {
		t.Fatalf("post-failure snapshot: scheme %v converged %v", snap.Scheme(), snap.Converged())
	}
	if snap.MaxHorizon() < 10*time.Millisecond {
		t.Fatalf("MaxHorizon = %v, want at least the detect delay", snap.MaxHorizon())
	}
	local := localRoutesOf(snap)
	if len(local) == 0 {
		t.Skip("seed produced no affected pairs for edge 0")
	}
	// Pre-horizon: every affected pair serves the bypass answer.
	for pr, rt := range local {
		got := snap.Route(pr.Src, pr.Dst)
		if got != rt {
			t.Fatalf("pre-horizon pair %v: got %p, want local %p", pr, got, rt)
		}
		if rt != nil {
			checkLocalAnswer(t, e, pr.Src, pr.Dst, rt, SchemeBypass, "pre-horizon")
		}
	}

	// Post-horizon: the same snapshot object now answers with the source
	// plan, bit-identical to a pure source-scheme engine.
	clk.Advance(snap.MaxHorizon() + time.Millisecond)
	if !snap.Converged() {
		t.Fatal("snapshot did not converge after the clock passed MaxHorizon")
	}
	for pr := range local {
		if !snap.HorizonPassed(pr.Src) {
			continue // partitioned source: keeps its local answer, honestly
		}
		got := snap.Route(pr.Src, pr.Dst)
		want := ref.Query(pr.Src, pr.Dst).Route
		if (got == nil) != (want == nil) {
			t.Fatalf("post-horizon pair %v: routable %v, source engine %v", pr, got != nil, want != nil)
		}
		if got == nil {
			continue
		}
		if got.Via != SchemeSource {
			t.Fatalf("post-horizon pair %v: Via = %v", pr, got.Via)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("post-horizon pair %v: cost %v, source engine %v", pr, got.Cost, want.Cost)
		}
	}
}

// TestHybridConvergenceProperty pins the cross-scheme agreement facts on
// seeded churn schedules, all four schemes fed the identical event stream
// and flushed in lockstep. With instant flood the hybrid engine is
// converged at every flush, so (refined from "all four agree"):
//
//   - hybrid-converged answers are Float64bits-identical to the source
//     engine's for every pair whose source the flood reached;
//   - end-route routability equals source routability for every failed-set
//     (the primary's prefix survives to the patch point, and the graph is
//     undirected, so patch-point-to-destination connectivity is exactly
//     source-to-destination connectivity);
//   - edge-bypass routability implies source routability, with equality on
//     single-failure sets (src~u and v~dst survive along the primary, so
//     src~dst connectivity transfers to u~v);
//   - local answers never beat the source answer's cost (source is
//     optimal); unaffected pairs are identical everywhere.
func TestHybridConvergenceProperty(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := topology.Waxman(14, 0.8, 0.5, seed)
		engines := make(map[Scheme]*Engine, 4)
		// A hybrid transition patches once: phase two is published under
		// the patch rows phase one froze.
		var phaseOne *Snapshot
		onePatch := func(s *Snapshot) {
			if !s.srcReady {
				phaseOne = s
			} else if phaseOne == nil || s.Epoch() != phaseOne.Epoch()+1 || s.patch != phaseOne.patch {
				t.Errorf("seed %d: hybrid phase two (epoch %d, failed %v) does not forward under its phase one's patch rows", seed, s.Epoch(), s.Failed())
			}
		}
		for _, s := range Schemes() {
			cfg := Config{Scheme: s}
			if s == SchemeHybrid {
				cfg.OnEpoch = onePatch
			}
			e, _ := newEngine(t, g, cfg)
			engines[s] = e
		}
		events := failure.ChurnSchedule(g, 30, 3, rand.New(rand.NewSource(seed)))
		for step, ev := range events {
			for _, e := range engines {
				if ev.Repair {
					e.Repair(ev.Edge)
				} else {
					e.Fail(ev.Edge)
				}
				e.Flush()
			}
			src := engines[SchemeSource]
			hyb := engines[SchemeHybrid].Snapshot()
			if !hyb.Converged() {
				t.Fatalf("seed %d step %d: zero-flood hybrid not converged", seed, step)
			}
			// Phase two forwards under phase one's patch rows.
			sendDeliversServed(t, hyb, fmt.Sprintf("seed %d step %d, hybrid", seed, step))
			single := len(src.Snapshot().Failed()) == 1
			for s := 0; s < g.Order(); s++ {
				for d := 0; d < g.Order(); d++ {
					if s == d {
						continue
					}
					sN, dN := graph.NodeID(s), graph.NodeID(d)
					want := src.Query(sN, dN).Route
					// Hybrid: bit-exact with source wherever the flood reached.
					if hyb.HorizonPassed(sN) {
						got := hyb.Route(sN, dN)
						if (got == nil) != (want == nil) {
							t.Fatalf("seed %d step %d pair %d->%d: hybrid routable %v, source %v",
								seed, step, s, d, got != nil, want != nil)
						}
						if got != nil && math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
							t.Fatalf("seed %d step %d pair %d->%d: hybrid cost %v, source %v",
								seed, step, s, d, got.Cost, want.Cost)
						}
					}
					local := engines[SchemeLocal].Query(sN, dN).Route
					byp := engines[SchemeBypass].Query(sN, dN).Route
					if (local == nil) != (want == nil) {
						t.Fatalf("seed %d step %d pair %d->%d: end-route routable %v, source %v",
							seed, step, s, d, local != nil, want != nil)
					}
					if byp != nil && want == nil {
						t.Fatalf("seed %d step %d pair %d->%d: bypass routes an unroutable pair",
							seed, step, s, d)
					}
					if single && (byp == nil) != (want == nil) {
						t.Fatalf("seed %d step %d pair %d->%d: single-failure bypass routable %v, source %v",
							seed, step, s, d, byp != nil, want != nil)
					}
					if local != nil && want != nil && local.Cost < want.Cost-1e-9 {
						t.Fatalf("seed %d step %d pair %d->%d: end-route cost %v beats optimal %v",
							seed, step, s, d, local.Cost, want.Cost)
					}
					if byp != nil && want != nil && byp.Cost < want.Cost-1e-9 {
						t.Fatalf("seed %d step %d pair %d->%d: bypass cost %v beats optimal %v",
							seed, step, s, d, byp.Cost, want.Cost)
					}
				}
			}
		}
	}
}

// TestDrainCancelsSwitchoverTimers: a hybrid engine keeps one switchover
// deadline per transition on its clock; Drain and Close drop the pending
// ones uncounted, so moving the clock past their horizons afterwards counts
// none of them converged — while a transition between the two, left alone,
// is counted once the clock passes it.
func TestDrainCancelsSwitchoverTimers(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 2)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	e, _ := newEngine(t, g, Config{
		Scheme: SchemeHybrid,
		Flood:  FloodConfig{Detect: time.Hour, PerHop: time.Hour},
		Clock:  clk.Now,
	})
	e.Fail(0)
	e.Flush()
	e.Fail(1)
	e.Flush()
	horizon := e.Snapshot().MaxHorizon()
	if horizon <= 0 {
		t.Fatal("the hybrid transitions have no switchover horizon")
	}
	e.Drain()
	clk.Advance(2 * horizon)
	if got := e.Stats().Converged; got != 0 {
		t.Fatalf("%d switchovers counted converged: Drain kept them", got)
	}
	// A transition after the drain converges once the clock passes it.
	e.Fail(2)
	e.Flush()
	clk.Advance(2 * e.Snapshot().MaxHorizon())
	if got := e.Stats().Converged; got != 1 {
		t.Fatalf("%d switchovers counted converged past the horizon, want 1", got)
	}
	// Close drops the pending ones too.
	e.Fail(3)
	e.Flush()
	horizon = e.Snapshot().MaxHorizon()
	e.Close()
	clk.Advance(2 * horizon)
	if got := e.Stats().Converged; got != 1 {
		t.Fatalf("after Close: %d switchovers counted converged, want 1", got)
	}
}

// TestStatsConvergedFollowsTheClock: the switchover is a deadline on the
// engine's clock, not a timer. On a stopped fake clock a hybrid transition
// stays unconverged however long the test takes; once the clock passes the
// epoch's MaxHorizon, Stats().Converged moves with Snapshot.Converged(); and
// no goroutine was started to make it so.
func TestStatsConvergedFollowsTheClock(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	e, _ := newEngine(t, g, Config{
		Scheme: SchemeHybrid,
		// Short enough that a wall-clock timer would fire inside the test.
		Flood: FloodConfig{Detect: time.Millisecond, PerHop: time.Millisecond},
		Clock: clk.Now,
	})
	goroutines := runtime.NumGoroutine()
	e.Fail(0)
	e.Flush()
	snap := e.Snapshot()
	time.Sleep(2 * snap.MaxHorizon())
	if st := e.Stats(); snap.Converged() || st.Converged != 0 {
		t.Fatalf("on a stopped clock: snapshot converged %v, Stats converged %d, want false, 0",
			snap.Converged(), st.Converged)
	}
	clk.Advance(snap.MaxHorizon())
	if st := e.Stats(); !snap.Converged() || st.Converged != 1 {
		t.Fatalf("past MaxHorizon: snapshot converged %v, Stats converged %d, want true, 1",
			snap.Converged(), st.Converged)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("%d goroutines, %d before the transition: the switchover started one", got, goroutines)
	}
}

// TestLocalStatsPopulated: the per-scheme observability surface carries
// real observations after churn.
func TestLocalStatsPopulated(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	e, _ := newEngine(t, g, Config{Scheme: SchemeBypass})
	e.Fail(0)
	e.Fail(1)
	e.Flush()
	e.RecordRestore(42 * time.Microsecond)
	st := e.Stats()
	if st.Scheme != SchemeBypass {
		t.Fatalf("Stats.Scheme = %v", st.Scheme)
	}
	if st.LocalBuild.Count == 0 {
		t.Fatal("no local build latency recorded")
	}
	if st.LocalPairs == 0 {
		t.Skip("seed produced no affected pairs")
	}
	if st.Stretch.Count == 0 || st.Stretch.Mean < 1000 {
		t.Fatalf("stretch summary %+v, want mean >= 1000 permille", st.Stretch)
	}
	if st.Restore.Count != 1 {
		t.Fatalf("Restore.Count = %d", st.Restore.Count)
	}
	if len(e.AffectedPairs(0)) == 0 && len(e.AffectedPairs(1)) == 0 && st.LocalPairs > 0 {
		t.Fatal("AffectedPairs disagrees with LocalPairs")
	}
}

// TestLocalRoutesSizedOnce: a local route's walk — under bypass its
// primary with every down link spliced out for its detour, under end-route
// its primary's prefix and the detour — is allocated once, at its final
// length: every local route of every epoch of a seeded churn has
// len == cap in both of its walk's arrays. It fails as vacuous unless some
// detour was longer than the link it replaced, where a walk grown by
// append would have been regrown.
func TestLocalRoutesSizedOnce(t *testing.T) {
	g := topology.PaperAS(1, 0.02)
	for _, scheme := range []Scheme{SchemeLocal, SchemeBypass, SchemeHybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			var prov rbpc.Provision
			longer := 0
			check := func(snap *Snapshot) {
				for pr, rt := range localRoutesOf(snap) {
					if rt == nil {
						continue
					}
					p := rt.Path
					if len(p.Nodes) != cap(p.Nodes) || len(p.Edges) != cap(p.Edges) {
						t.Errorf("epoch %d: %v walks %d nodes in %d slots, %d edges in %d", snap.Epoch(), pr, len(p.Nodes), cap(p.Nodes), len(p.Edges), cap(p.Edges))
					}
					if idx, ok := prov.Primary(pr.Src, pr.Dst); ok && len(p.Edges) > prov.Base.All()[idx].Hops() {
						longer++
					}
				}
			}
			e, sys := newEngine(t, g, Config{Scheme: scheme, OnEpoch: check})
			prov = sys.Export()
			for _, ev := range failure.ChurnSchedule(g, 30, 3, rand.New(rand.NewSource(9))) {
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
			}
			if longer == 0 {
				t.Fatal("vacuous: no detour lengthened a walk")
			}
		})
	}
}
