package engine

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/sim"
	"rbpc/internal/spath"
)

// Scheme selects which of the paper's Section-4 restoration schemes the
// engine serves online.
//
// The source-router scheme recomputes a concatenation at the ingress and
// rewrites its FEC entry — optimal routes, but only after the failure has
// flooded back to the source. The two local schemes act at the router
// adjacent to the failure, which detects it immediately: end-route patches
// the ILM row to carry traffic to the LSP's egress over surviving base
// paths, edge-bypass detours around the failed link and resumes the
// original LSP at its far endpoint. Hybrid composes them in time: every
// source serves the bypass answer the instant the adjacent router patches,
// then switches to the optimal source answer once the modeled link-state
// flood (Config.Flood) has reached it.
type Scheme int

const (
	// SchemeSource is the source-router scheme (Section 4.1) — the zero
	// value, and the engine's historical behavior.
	SchemeSource Scheme = iota
	// SchemeLocal is local end-route restoration (Section 4.2).
	SchemeLocal
	// SchemeBypass is local edge-bypass restoration (Section 4.2).
	SchemeBypass
	// SchemeHybrid serves edge-bypass immediately and switches each source
	// to the source-router answer after its flood horizon passes.
	SchemeHybrid
)

// String implements fmt.Stringer; the names double as the CLI vocabulary
// of rbpc-serve -scheme and the chaos corpus encoding.
func (s Scheme) String() string {
	switch s {
	case SchemeSource:
		return "source"
	case SchemeLocal:
		return "local"
	case SchemeBypass:
		return "bypass"
	case SchemeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists every serving scheme.
func Schemes() []Scheme {
	return []Scheme{SchemeSource, SchemeLocal, SchemeBypass, SchemeHybrid}
}

// ParseScheme maps a scheme name back to its value.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return SchemeSource, fmt.Errorf("engine: unknown scheme %q", name)
}

// FloodConfig models link-state flood propagation: after a topology
// change, the adjacent routers learn of it after Detect, and every further
// router one LSA transmission later per surviving-graph hop (sim.FloodHops).
// The zero value floods instantly — hybrid converges at publish, which is
// the deterministic mode the conformance tests run in.
type FloodConfig struct {
	Detect time.Duration
	PerHop time.Duration
}

// neverHorizon marks a router the flood cannot reach (partitioned from
// every changed link): it never learns of the transition and keeps serving
// its local answers indefinitely.
const neverHorizon = time.Duration(math.MaxInt64)

// localPlan is one epoch's local-restoration serving state: the affected
// pairs (canonical primary crosses a down link) mapped to the answer the
// patched data plane actually delivers. A nil route means the pair is
// locally unrestorable — the failure disconnected the patch point from its
// detour target — and is served as unroutable even if a source-router
// concatenation exists; that gap is exactly the paper's trade-off between
// restoration speed and coverage.
//
//rbpc:immutable
type localPlan struct {
	routes map[rbpc.Pair]*Route
}

// emptyLocal is the shared pristine local plan (no failures, no patches).
var emptyLocal = &localPlan{}

// localFlavor maps the serving scheme to the ILM-patch flavor it installs.
func (e *Engine) localFlavor() (rbpc.LocalScheme, Scheme) {
	if e.cfg.Scheme == SchemeLocal {
		return rbpc.EndRoute, SchemeLocal
	}
	return rbpc.EdgeBypass, SchemeBypass
}

// labelInto returns the label under which the LSP's traffic is processed
// at Path.Nodes[i]: the ingress self-label for i == 0, the upstream hop
// label otherwise.
func labelInto(lsp *mpls.LSP, i int) (mpls.Label, bool) {
	if i == 0 {
		return lsp.SelfLabel(), true
	}
	return lsp.HopLabel(i - 1)
}

// decPath flattens a decomposition into the concrete hop-by-hop path its
// components traverse.
func decPath(dec core.Decomposition) graph.Path {
	p := dec.Components[0].Path
	for _, c := range dec.Components[1:] {
		p = p.Concat(c.Path)
	}
	return p
}

// detourKey identifies one decomposition request (patch point -> target).
type detourKey struct {
	s, d graph.NodeID
}

// buildLocalPlan computes the epoch's local restoration state for the
// full failed-set: it patches the ILM row of every provisioned LSP
// crossing of every down link on the epoch's net (recording the patches in
// e.ilmPatches for the next transition's revert) and derives the answer
// each affected pair's patched forwarding now delivers. Writer-only.
//
// The build batches all detour solves: crossings and affected primaries
// are scanned first to collect the (patch point, target) set, then one
// sparse solver answers each patch point's targets in a single Dijkstra
// run over the base-path graph — the same O(1)-ish solve count per failed
// link that makes the local schemes fast to install in the paper.
func (e *Engine) buildLocalPlan(failed []graph.EdgeID, fv *graph.FailureView, oracle *spath.Oracle, nh *netHandle) *localPlan {
	if len(failed) == 0 {
		return emptyLocal
	}
	flavor, via := e.localFlavor()

	downIn := make(map[graph.EdgeID]bool, len(failed))
	for _, ed := range failed {
		downIn[ed] = true
	}

	// Pass 1: collect every detour endpoint the build needs — one request
	// per patched crossing, plus the per-crossing requests of each affected
	// pair's primary (the same requests when primaries are base paths, but
	// collected explicitly so the route construction below never misses).
	want := make(map[detourKey]bool)
	targets := make(map[graph.NodeID][]graph.NodeID)
	need := func(s, d graph.NodeID) {
		k := detourKey{s, d}
		if !want[k] {
			want[k] = true
			targets[s] = append(targets[s], d)
		}
	}

	type rowKey struct {
		router graph.NodeID
		label  mpls.Label
	}
	type crossing struct {
		lsp    *mpls.LSP
		i      int
		r1, r2 graph.NodeID
		label  mpls.Label
	}
	var crossings []crossing
	seen := make(map[rowKey]bool)
	for _, ed := range failed {
		for _, p := range e.xbase.ThroughEdge(ed) {
			lsp, ok := e.lspOf[p.Key()]
			if !ok {
				continue
			}
			for i, edge := range lsp.Path.Edges {
				if edge != ed {
					continue
				}
				r1, r2 := lsp.Path.Nodes[i], lsp.Path.Nodes[i+1]
				label, ok := labelInto(lsp, i)
				if !ok {
					continue
				}
				k := rowKey{router: r1, label: label}
				if seen[k] {
					continue
				}
				seen[k] = true
				crossings = append(crossings, crossing{lsp: lsp, i: i, r1: r1, r2: r2, label: label})
				if flavor == rbpc.EndRoute {
					need(r1, lsp.Egress())
				} else {
					need(r1, r2)
				}
			}
		}
	}

	affected := make([]rbpc.Pair, 0, len(e.downCount))
	for pr := range e.downCount {
		affected = append(affected, pr)
	}
	sort.Slice(affected, func(i, j int) bool {
		if affected[i].Src != affected[j].Src {
			return affected[i].Src < affected[j].Src
		}
		return affected[i].Dst < affected[j].Dst
	})
	for _, pr := range affected {
		lsp := e.primaries[pr]
		if lsp == nil {
			continue
		}
		for i, edge := range lsp.Path.Edges {
			if !downIn[edge] {
				continue
			}
			if flavor == rbpc.EndRoute {
				need(lsp.Path.Nodes[i], pr.Dst)
				break // end-route acts at the first down crossing only
			}
			need(lsp.Path.Nodes[i], lsp.Path.Nodes[i+1])
		}
	}

	// Pass 2: one batched solve per patch point, in sorted order so label
	// allocation for on-demand LSPs stays deterministic.
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
		return solved[k], okd[k]
	}

	// Pass 3: install the ILM patches on the epoch's net.
	for _, c := range crossings {
		target := c.r2
		if flavor == rbpc.EndRoute {
			target = c.lsp.Egress()
		}
		dec, ok := sol(c.r1, target)
		if !ok || len(dec.Components) == 0 {
			e.mLocalUnrestorable.Add(0, 1)
			continue
		}
		row, ok := e.localILMRow(c.lsp, c.i, dec, nh, flavor)
		if !ok {
			e.mLocalUnrestorable.Add(0, 1)
			continue
		}
		if err := e.ilmPatches.Apply(nh.net, c.r1, c.label, row); err != nil {
			// The row vanished from under us — a provisioning bug, not a
			// runtime condition; surface it like PatchSet.RevertAll would.
			panic("engine: applying ILM patch: " + err.Error())
		}
		e.mDetourHops.Add(int64(decPath(dec).Hops()))
	}

	// Pass 4: derive the answer each affected pair's patched data plane
	// now delivers, plus the stretch it pays over the true post-failure
	// shortest distance.
	routes := make(map[rbpc.Pair]*Route, len(affected))
	for _, pr := range affected {
		var rt *Route
		if lsp := e.primaries[pr]; lsp != nil {
			rt = e.localRoute(pr, lsp, downIn, sol, flavor, via)
		}
		routes[pr] = rt
		e.mLocalPairs.Add(0, 1)
		if rt == nil {
			e.mLocalUnrestorable.Add(0, 1)
			continue
		}
		if dist := oracle.Dist(pr.Src, pr.Dst); dist > 0 && dist != spath.Unreachable {
			e.mStretch.Add(int64(math.Round(1000 * rt.Cost / dist)))
		}
	}
	return &localPlan{routes: routes}
}

// localILMRow builds the replacement ILM row for the LSP's i-th crossing,
// resolving the detour decomposition to LSPs on the epoch's net. Mirrors
// rbpc.System.localRow, phrased against engine state.
func (e *Engine) localILMRow(lsp *mpls.LSP, i int, dec core.Decomposition, nh *netHandle, flavor rbpc.LocalScheme) (mpls.ILMEntry, bool) {
	r := rbpc.Resolver{Net: nh.net, LSPs: e.lspOf}
	lsps, err := r.Resolve(dec)
	if err != nil {
		return mpls.ILMEntry{}, false
	}
	atomic.AddInt64(&e.onDemand, int64(r.OnDemand))
	stack, err := mpls.SelfStack(lsps)
	if err != nil {
		return mpls.ILMEntry{}, false
	}
	if flavor == rbpc.EndRoute {
		return mpls.ILMEntry{Out: stack, OutEdge: mpls.LocalProcess}, true
	}
	resume, ok := lsp.HopLabel(i)
	if !ok {
		return mpls.ILMEntry{}, false
	}
	// Bottom-first: the resume label sits beneath the bypass stack,
	// exposed when the bypass's egress pops.
	out := make([]mpls.Label, 0, len(stack)+1)
	out = append(out, resume)
	out = append(out, stack...)
	return mpls.ILMEntry{Out: out, OutEdge: mpls.LocalProcess}, true
}

// localRoute derives the path an affected pair's traffic takes through the
// patched data plane: the primary up to the first down crossing followed by
// the end-route detour to the destination, or (edge-bypass) the primary
// with every down link spliced out for its detour. Returns nil when any
// required detour does not exist — the pair is locally unrestorable.
func (e *Engine) localRoute(pr rbpc.Pair, lsp *mpls.LSP, downIn map[graph.EdgeID]bool, sol func(s, d graph.NodeID) (core.Decomposition, bool), flavor rbpc.LocalScheme, via Scheme) *Route {
	if flavor == rbpc.EndRoute {
		for i, edge := range lsp.Path.Edges {
			if !downIn[edge] {
				continue
			}
			r1 := lsp.Path.Nodes[i]
			dec, ok := sol(r1, pr.Dst)
			if !ok || len(dec.Components) == 0 {
				return nil
			}
			prefix := lsp.Path.SubPath(0, i)
			return &Route{
				Via:  via,
				Path: prefix.Concat(decPath(dec)),
				Cost: prefix.CostIn(e.g) + dec.Cost(e.g),
			}
		}
		return nil // unreachable: downCount said a crossing exists
	}
	nodes := make([]graph.NodeID, 1, len(lsp.Path.Nodes))
	nodes[0] = lsp.Path.Src()
	edges := make([]graph.EdgeID, 0, len(lsp.Path.Edges))
	var cost float64
	for i, edge := range lsp.Path.Edges {
		if !downIn[edge] {
			nodes = append(nodes, lsp.Path.Nodes[i+1])
			edges = append(edges, edge)
			cost += e.g.Edge(edge).W
			continue
		}
		dec, ok := sol(lsp.Path.Nodes[i], lsp.Path.Nodes[i+1])
		if !ok || len(dec.Components) == 0 {
			return nil
		}
		dp := decPath(dec)
		nodes = append(nodes, dp.Nodes[1:]...)
		edges = append(edges, dp.Edges...)
		cost += dec.Cost(e.g)
	}
	return &Route{Via: via, Path: graph.Path{Nodes: nodes, Edges: edges}, Cost: cost}
}

// floodHorizons computes, per router, when the modeled link-state flood of
// this transition's changed links (failures and repairs alike) has reached
// it — the earliest moment it may switch from the local answer to the
// source-router answer. The horizon for the full transition is the max
// over the changed links: a source acts only on complete knowledge of the
// new failed-set. Routers the flood cannot reach get neverHorizon.
func (e *Engine) floodHorizons(delta []graph.EdgeID, fv *graph.FailureView) (horizon []time.Duration, maxFinite time.Duration) {
	if len(delta) == 0 {
		return nil, 0
	}
	horizon = make([]time.Duration, e.g.Order())
	for i, ed := range delta {
		hops := sim.FloodHops(fv, e.g.Edge(ed))
		for r, h := range hops {
			d := neverHorizon
			if h >= 0 {
				d = e.cfg.Flood.Detect + time.Duration(h)*e.cfg.Flood.PerHop
			}
			if i == 0 || d > horizon[r] {
				horizon[r] = d
			}
		}
	}
	for _, d := range horizon {
		if d != neverHorizon && d > maxFinite {
			maxFinite = d
		}
	}
	return horizon, maxFinite
}

// scheduleConvergence arms the hybrid switchover timer: it fires once the
// last reachable router's flood horizon has passed and counts the epoch as
// converged (serving-side switchover needs no timer — Snapshot.Route gates
// on the clock — so the timer exists for observability and is safe to
// cancel). Drain and Close stop all pending timers so no callback
// outlives the engine.
func (e *Engine) scheduleConvergence(d time.Duration) {
	if d <= 0 {
		e.mConverged.Add(0, 1)
		return
	}
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	if e.timers == nil {
		e.timers = make(map[*time.Timer]struct{})
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		e.timerMu.Lock()
		_, live := e.timers[t]
		delete(e.timers, t)
		e.timerMu.Unlock()
		if live {
			e.mConverged.Add(0, 1)
		}
	})
	e.timers[t] = struct{}{}
}

// stopTimers cancels every pending switchover timer.
func (e *Engine) stopTimers() {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	for t := range e.timers {
		t.Stop()
	}
	clear(e.timers)
}

// pendingTimers reports the number of armed switchover timers.
func (e *Engine) pendingTimers() int {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	return len(e.timers)
}

// publishLocal builds and publishes the local-restoration epoch for the
// new failed-set. Under SchemeLocal/SchemeBypass this is the transition's
// only epoch — unaffected pairs serve canonical rows, affected pairs the
// local plan — and publishLocal returns done=true. Under SchemeHybrid it
// is phase one of two: the previous epoch's rows are carried (sources have
// not heard of the transition yet, so their precomputed answers are
// honestly stale) beneath the fresh local plan, and the caller continues
// into the source-plan build, which publishes phase two on a fresh net
// clone with srcReady set.
//
// FaultStaleBypass short-circuits the revert+rebuild: the previous plan's
// patches stay applied and its routes keep being served.
func (e *Engine) publishLocal(prev *Snapshot, start time.Time, failed []graph.EdgeID, key string, fv *graph.FailureView, oracle *spath.Oracle, net *mpls.Network, nh *netHandle, newlyDown, repairedIDs []graph.EdgeID) (snap1 *Snapshot, done bool) {
	buildStart := time.Now()
	var lp *localPlan
	if e.cfg.Fault == FaultStaleBypass {
		lp = e.prevLocal
		if lp == nil {
			lp = emptyLocal
		}
	} else {
		e.ilmPatches.RevertAll(net)
		lp = e.buildLocalPlan(failed, fv, oracle, nh)
	}
	e.mLocalBuild.Record(0, time.Since(buildStart))
	e.prevLocal = lp

	hybrid := e.cfg.Scheme == SchemeHybrid
	var horizon []time.Duration
	var maxH time.Duration
	if hybrid {
		delta := make([]graph.EdgeID, 0, len(newlyDown)+len(repairedIDs))
		delta = append(delta, newlyDown...)
		delta = append(delta, repairedIDs...)
		horizon, maxH = e.floodHorizons(delta, fv)
	}
	detected := time.Now()
	if e.cfg.Clock != nil {
		detected = e.cfg.Clock()
	}
	var over []*planRow
	if hybrid {
		over = prev.over
	}
	next := &Snapshot{
		epoch:      prev.epoch + 1,
		failed:     failed,
		key:        key,
		fv:         fv,
		net:        net,
		oracle:     oracle,
		created:    time.Now(),
		canon:      e.canonical,
		over:       over,
		rowBytes:   e.canonBytes + overlayBytes(over),
		scheme:     e.cfg.Scheme,
		local:      lp,
		horizon:    horizon,
		maxHorizon: maxH,
		detected:   detected,
		clock:      e.cfg.Clock,
	}
	e.snap.Store(next)
	e.mEpochs.Add(0, 1)
	if !hybrid {
		e.mBuild.Record(0, time.Since(start))
	}
	if e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(next)
	}
	return next, !hybrid
}
