package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rbpc/internal/core"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// localRoutesOf flattens a snapshot's local plan into a map: every
// affected pair and its local answer (nil = locally unrestorable).
func localRoutesOf(s *Snapshot) map[rbpc.Pair]*Route {
	out := make(map[rbpc.Pair]*Route)
	if s.local == nil {
		return out
	}
	for src, row := range s.local.rows {
		if row == nil {
			continue
		}
		for i, d := range row.dsts {
			out[rbpc.Pair{Src: graph.NodeID(src), Dst: d}] = row.routes[i]
		}
	}
	return out
}

// ilmRow names one ILM row.
type ilmRow struct {
	router graph.NodeID
	label  mpls.Label
}

// refLocal is what the reference local build produces for one failed-set.
type refLocal struct {
	routes       map[rbpc.Pair]*Route     // every affected pair; nil = unrestorable
	rows         map[ilmRow]mpls.ILMEntry // the patched rows of a full re-apply
	unrestorable int64                    // crossings and pairs without a detour
	detourHops   []int64                  // one observation per patched row, in patch order
}

type detourKey struct {
	s, d graph.NodeID
}

// referenceLocalBuild is the local build as it was before it moved onto
// pooled solve scratch: string-keyed crossing scan, a fresh unbounded
// SparseSolver.From per patch point, maps throughout, and every row
// re-derived. It is the oracle of TestLocalBuildMatchesReference and must
// stay the plain transcription of Section 4.2 it is. It reads engine state
// (it runs on the writer, from OnEpoch) but writes none. Crossings are
// scanned off the provision's string-keyed registry (LSPs), a pair's primary
// is read off the provision (Primary), and a solved component resolves
// through the provision's table by its base-set index (BaseLSPs), as the
// engine resolves it.
func referenceLocalBuild(e *Engine, failed []graph.EdgeID, fv *graph.FailureView, prov rbpc.Provision) (ref refLocal) {
	lsps, baseLSPs := prov.LSPs, prov.BaseLSPs
	via := SchemeBypass
	if e.cfg.Scheme == SchemeLocal {
		via = SchemeLocal
	}
	ref = refLocal{
		routes: make(map[rbpc.Pair]*Route),
		rows:   make(map[ilmRow]mpls.ILMEntry),
	}
	downIn := make(map[graph.EdgeID]bool, len(failed))
	for _, ed := range failed {
		downIn[ed] = true
	}

	want := make(map[detourKey]bool)
	targets := make(map[graph.NodeID][]graph.NodeID)
	need := func(s, d graph.NodeID) {
		k := detourKey{s, d}
		if !want[k] {
			want[k] = true
			targets[s] = append(targets[s], d)
		}
	}

	type crossing struct {
		lsp    *mpls.LSP
		i      int
		r1, r2 graph.NodeID
		label  mpls.Label
	}
	var crossings []crossing
	seen := make(map[ilmRow]bool)
	for _, ed := range failed {
		for _, idx := range e.base.IndicesThroughEdge(ed) {
			lsp, ok := lsps[e.base.All()[idx].Key()]
			if !ok {
				continue
			}
			for i, edge := range lsp.Path.Edges {
				if edge != ed {
					continue
				}
				r1, r2 := lsp.Path.Nodes[i], lsp.Path.Nodes[i+1]
				// The row under which the LSP's traffic is processed at
				// r1: its self-label at the ingress, else the label of the
				// hop into r1.
				label, ok := lsp.SelfLabel(), true
				if i > 0 {
					label, ok = lsp.HopLabel(i - 1)
				}
				if !ok {
					continue
				}
				k := ilmRow{router: r1, label: label}
				if seen[k] {
					continue
				}
				seen[k] = true
				crossings = append(crossings, crossing{lsp: lsp, i: i, r1: r1, r2: r2, label: label})
				if via == SchemeLocal {
					need(r1, lsp.Egress())
				} else {
					need(r1, r2)
				}
			}
		}
	}

	// The affected set, from the primaries themselves rather than the
	// engine's liveness counts, in (src, dst) order.
	var affected []rbpc.Pair
	primary := make(map[rbpc.Pair]*mpls.LSP)
	for s := 0; s < e.g.Order(); s++ {
		for d := 0; d < e.g.Order(); d++ {
			pr := rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)}
			idx, ok := prov.Primary(pr.Src, pr.Dst)
			if ok && slices.ContainsFunc(baseLSPs[idx].Path.Edges, func(ed graph.EdgeID) bool { return downIn[ed] }) {
				affected = append(affected, pr)
				primary[pr] = baseLSPs[idx]
			}
		}
	}
	for _, pr := range affected {
		lsp := primary[pr]
		for i, edge := range lsp.Path.Edges {
			if !downIn[edge] {
				continue
			}
			if via == SchemeLocal {
				need(lsp.Path.Nodes[i], pr.Dst)
				break
			}
			need(lsp.Path.Nodes[i], lsp.Path.Nodes[i+1])
		}
	}

	srcs := make([]graph.NodeID, 0, len(targets))
	for s := range targets {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	ss := core.NewSparseSolver(e.base, fv)
	solved := make(map[detourKey]core.Decomposition, len(want))
	okd := make(map[detourKey]bool, len(want))
	for _, s := range srcs {
		dsts := targets[s]
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		decs, oks := ss.From(s, dsts)
		for j, d := range dsts {
			solved[detourKey{s, d}] = decs[j]
			okd[detourKey{s, d}] = oks[j]
		}
	}
	sol := func(s, d graph.NodeID) (core.Decomposition, bool) {
		k := detourKey{s, d}
		return solved[k], okd[k] && len(solved[k].Components) > 0
	}

	ilmRowFor := func(c crossing, dec core.Decomposition) (mpls.ILMEntry, bool) {
		resolved := make([]*mpls.LSP, len(dec.Components))
		for i, comp := range dec.Components {
			if comp.Base == 0 {
				return mpls.ILMEntry{}, false
			}
			resolved[i] = baseLSPs[comp.Base-1]
		}
		stack, err := mpls.SelfStack(resolved)
		if err != nil {
			return mpls.ILMEntry{}, false
		}
		if via == SchemeLocal {
			return mpls.ILMEntry{Out: stack, OutEdge: mpls.LocalProcess}, true
		}
		resume, ok := c.lsp.HopLabel(c.i)
		if !ok {
			return mpls.ILMEntry{}, false
		}
		return mpls.ILMEntry{Out: append([]mpls.Label{resume}, stack...), OutEdge: mpls.LocalProcess}, true
	}
	for _, c := range crossings {
		target := c.r2
		if via == SchemeLocal {
			target = c.lsp.Egress()
		}
		dec, ok := sol(c.r1, target)
		if !ok {
			ref.unrestorable++
			continue
		}
		row, ok := ilmRowFor(c, dec)
		if !ok {
			ref.unrestorable++
			continue
		}
		ref.rows[ilmRow{c.r1, c.label}] = row
		ref.detourHops = append(ref.detourHops, int64(dec.Concat().Hops()))
	}

	localRoute := func(pr rbpc.Pair, lsp *mpls.LSP) *Route {
		if via == SchemeLocal {
			for i, edge := range lsp.Path.Edges {
				if !downIn[edge] {
					continue
				}
				dec, ok := sol(lsp.Path.Nodes[i], pr.Dst)
				if !ok {
					return nil
				}
				prefix := lsp.Path.SubPath(0, i)
				return &Route{Via: via, Path: prefix.Concat(dec.Concat()), Cost: prefix.CostIn(e.g) + dec.Cost(e.g)}
			}
			return nil
		}
		nodes := []graph.NodeID{lsp.Path.Src()}
		var edges []graph.EdgeID
		var cost float64
		for i, edge := range lsp.Path.Edges {
			if !downIn[edge] {
				nodes = append(nodes, lsp.Path.Nodes[i+1])
				edges = append(edges, edge)
				cost += e.g.Edge(edge).W
				continue
			}
			dec, ok := sol(lsp.Path.Nodes[i], lsp.Path.Nodes[i+1])
			if !ok {
				return nil
			}
			dp := dec.Concat()
			nodes = append(nodes, dp.Nodes[1:]...)
			edges = append(edges, dp.Edges...)
			cost += dec.Cost(e.g)
		}
		return &Route{Via: via, Path: graph.Path{Nodes: nodes, Edges: edges}, Cost: cost}
	}
	for _, pr := range affected {
		rt := localRoute(pr, primary[pr])
		ref.routes[pr] = rt
		if rt == nil {
			ref.unrestorable++
		}
	}
	return ref
}

// lspRows lists every ILM row the LSP installed: the ingress self-row and
// one row per downstream router.
func lspRows(lsp *mpls.LSP) []ilmRow {
	rows := []ilmRow{{lsp.Ingress(), lsp.SelfLabel()}}
	for i := range lsp.Path.Edges {
		if l, ok := lsp.HopLabel(i); ok {
			rows = append(rows, ilmRow{lsp.Path.Nodes[i+1], l})
		}
	}
	return rows
}

func sameILMEntry(a, b mpls.ILMEntry) bool {
	return a.OutEdge == b.OutEdge && a.LSP == b.LSP && slices.Equal(a.Out, b.Out)
}

// TestLocalBuildMatchesReference locksteps the engine's local build — the
// pull off the liveness counts; the path-index crossing scan; the
// memoized detours; the frozen ILM overlay — against referenceLocalBuild over
// seeded churn with up to three links down, on every epoch that publishes
// a freshly built local plan: the same affected set, bit-identical costs,
// the same walks, the same unrestorable pairs, the same counters, and a
// phase-one epoch whose every ILM row (Snapshot.ILMRow) reads as the
// provision's with the reference's rows applied.
func TestLocalBuildMatchesReference(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"as", topology.PaperAS(1, 0.02)},
		// The weighted ISP stand-in at two fifths of the paper's size:
		// single-homed access links are bridges, so pairs go unrestorable.
		{"isp", topology.ISP(topology.ISPConfig{
			Core: 6, Agg: 18, Access: 56, CoreOffsets: []int{1, 2}, DualAccess: 28,
			WCore: 1, WAgg: 3, WAccess: 10, WJitter: 2,
		}, 2)},
	}
	steps := 36
	if testing.Short() {
		steps = 12
	}
	for _, tp := range topos {
		for _, scheme := range []Scheme{SchemeLocal, SchemeBypass, SchemeHybrid} {
			t.Run(tp.name+"/"+scheme.String(), func(t *testing.T) {
				sys, err := rbpc.NewSystem(tp.g, rbpc.Config{EdgeLSPs: true})
				if err != nil {
					t.Fatal(err)
				}
				prov := sys.Export()
				var e *Engine
				var last struct {
					unrestorable, hopsCount, hopsSum int64
				}
				epochs := 0
				check := func(snap *Snapshot) error {
					if snap.srcReady {
						return nil // hybrid phase two carries phase one's plan
					}
					epochs++
					// The reference scans crossings by path content off the
					// provision's string-keyed registry, which the engine
					// does not read.
					ref := referenceLocalBuild(e, snap.failed, snap.fv, prov)

					got := localRoutesOf(snap)
					if len(got) != len(ref.routes) {
						return fmt.Errorf("epoch %d (failed %v): %d affected pairs, reference %d", snap.epoch, snap.failed, len(got), len(ref.routes))
					}
					for pr, want := range ref.routes {
						rt, affected := got[pr]
						if !affected {
							return fmt.Errorf("epoch %d: pair %v missing from the local plan", snap.epoch, pr)
						}
						if (rt == nil) != (want == nil) {
							return fmt.Errorf("epoch %d: pair %v restorable %v, reference %v", snap.epoch, pr, rt != nil, want != nil)
						}
						if rt == nil {
							continue
						}
						if math.Float64bits(rt.Cost) != math.Float64bits(want.Cost) {
							return fmt.Errorf("epoch %d: pair %v cost %v, reference %v", snap.epoch, pr, rt.Cost, want.Cost)
						}
						if !rt.Path.Equal(want.Path) || rt.Via != want.Via {
							return fmt.Errorf("epoch %d: pair %v walks %v via %v, reference %v via %v", snap.epoch, pr, rt.Path, rt.Via, want.Path, want.Via)
						}
						if lr, ok := snap.LocalRoute(pr.Src, pr.Dst); !ok || lr != rt {
							return fmt.Errorf("epoch %d: LocalRoute(%v) = %p, %v; the plan holds %p", snap.epoch, pr, lr, ok, rt)
						}
					}

					// Counters: this build's share of the cumulative metrics.
					hops := e.mDetourHops.Summarize()
					hopsSum := int64(math.Round(hops.Mean * float64(hops.Count)))
					var wantSum int64
					for _, h := range ref.detourHops {
						wantSum += h
					}
					if d := e.mLocalUnrestorable.Load() - last.unrestorable; d != ref.unrestorable {
						return fmt.Errorf("epoch %d: LocalUnrestorable grew by %d, reference %d", snap.epoch, d, ref.unrestorable)
					}
					if dc, ds := hops.Count-last.hopsCount, hopsSum-last.hopsSum; dc != int64(len(ref.detourHops)) || ds != wantSum {
						return fmt.Errorf("epoch %d: DetourHops grew by %d observations summing %d, reference %d summing %d",
							snap.epoch, dc, ds, len(ref.detourHops), wantSum)
					}
					last.unrestorable, last.hopsCount, last.hopsSum = e.mLocalUnrestorable.Load(), hops.Count, hopsSum

					// ILM: the provision's tables with the reference's rows
					// applied. Only provisioned LSPs are ever patched, and the
					// engine's network holds every such row as provisioned.
					if snap.patch.Len() != len(ref.rows) {
						return fmt.Errorf("epoch %d: %d rows patched, reference %d", snap.epoch, snap.patch.Len(), len(ref.rows))
					}
					for _, lsp := range prov.LSPs {
						for _, k := range lspRows(lsp) {
							want, patched := ref.rows[k]
							if !patched {
								want, _ = e.net.Router(k.router).ILMEntryFor(k.label)
							}
							if have, ok := snap.ILMRow(k.router, k.label); !ok || !sameILMEntry(have, want) {
								return fmt.Errorf("epoch %d (failed %v): router %d label %d reads %+v, the provision with the reference's rows gives %+v (patched: %v)",
									snap.epoch, snap.failed, k.router, k.label, have, want, patched)
							}
						}
					}
					return nil
				}
				// The hook runs on the writer; Flush orders its writes before
				// the test goroutine's reads.
				var hookErr error
				e, err = New(prov, Config{Scheme: scheme, OnEpoch: func(s *Snapshot) {
					if hookErr == nil {
						hookErr = check(s)
					}
				}})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()

				events := failure.ChurnSchedule(tp.g, steps, 3, rand.New(rand.NewSource(17)))
				for _, ev := range events {
					if ev.Repair {
						e.Repair(ev.Edge)
					} else {
						e.Fail(ev.Edge)
					}
					e.Flush()
					if hookErr != nil {
						t.Fatal(hookErr)
					}
				}
				if epochs < len(events) {
					t.Fatalf("checked %d local epochs over %d events", epochs, len(events))
				}
				if patch := e.Snapshot().patch; patch != nil {
					t.Fatalf("%d ILM patch rows left after the schedule drained, want the nil overlay", patch.Len())
				}
			})
		}
	}
}

// TestHybridStretchFromSourcePlan pins where hybrid reads its stretch
// denominators: over a fixed seeded schedule with instant flood, Stretch as
// accounted from the phase-two source plan equals — count and sum — what
// the epoch oracle's distances give for the same local plans.
func TestHybridStretchFromSourcePlan(t *testing.T) {
	g := topology.PaperAS(1, 0.02)
	sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
	if err != nil {
		t.Fatal(err)
	}
	var wantCount, wantSum int64
	e, err := New(sys.Export(), Config{Scheme: SchemeHybrid, OnEpoch: func(s *Snapshot) {
		if s.srcReady {
			return
		}
		for pr, rt := range localRoutesOf(s) {
			if rt == nil {
				continue
			}
			wantCount++
			wantSum += int64(math.Round(1000 * rt.Cost / s.oracle.Dist(pr.Src, pr.Dst)))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, ev := range failure.ChurnSchedule(g, 40, 3, rand.New(rand.NewSource(23))) {
		if ev.Repair {
			e.Repair(ev.Edge)
		} else {
			e.Fail(ev.Edge)
		}
		e.Flush()
	}
	st := e.Stats().Stretch
	if wantCount == 0 {
		t.Fatal("schedule produced no restorable affected pair")
	}
	if sum := int64(math.Round(st.Mean * float64(st.Count))); st.Count != wantCount || sum != wantSum {
		t.Fatalf("Stretch: %d observations summing %d; oracle distances give %d summing %d", st.Count, sum, wantCount, wantSum)
	}
}
