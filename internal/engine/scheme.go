package engine

import (
	"fmt"
	"math"
	"slices"
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
// flood (Config.Flood) has reached it. A scheme is one byte, which is how
// it crosses the wire inside Stats.
type Scheme uint8

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

// localScratch is buildLocalPlan's working memory. The build is
// writer-only and runs once per transition on the restore-critical path,
// so everything it would otherwise allocate per event lives here and is
// reused: the tables indexed by edge and node are returned to all-zero at
// the end of each build, the slices are truncated at the start of the
// next.
type localScratch struct {
	downIn   []bool          // by EdgeID: the link is down in the epoch being built
	pointAt  []int32         // by NodeID: 1 + index in points of the node's patch point
	points   []patchPoint    // detour requests grouped by patch point; entries are recycled
	want     []mpls.ILMPatch // a patch per crossing of a down link
	affected []affectedPair
	merged   []affectedPair // second buffer of the affected-set merge
	crossed  []affectedPair // one link's affected pairs, merged into affected
	stretch  []stretchObs
	decs     []core.Decomposition // one patch point's solve
	oks      []bool
}

// patchPoint is one router adjacent to a failure and the detours it needs:
// every request out of it is answered by one solve.
type patchPoint struct {
	s      graph.NodeID
	dsts   []graph.NodeID
	slotAt []int32 // by NodeID: 1 + index in dsts of the request towards it
	// dets holds each request's solved detour, by index in dsts: LSPs, cost
	// and walk (Path), derived once; nil if no surviving detour resolves.
	dets []*Route
}

type affectedPair struct {
	graph.NodePair
	lsp *mpls.LSP // the pair's canonical primary
}

// stretchObs is one restorable affected pair's local cost, kept until the
// transition's stretch is accounted (see accountStretch).
type stretchObs struct {
	pr   rbpc.Pair
	cost float64
}

func newLocalScratch(g *graph.Graph) *localScratch {
	return &localScratch{
		downIn:  make([]bool, g.Size()),
		pointAt: make([]int32, g.Order()),
	}
}

// need registers the detour request s -> d.
func (sc *localScratch) need(s, d graph.NodeID) {
	pi := sc.pointAt[s]
	if pi == 0 {
		if len(sc.points) < cap(sc.points) {
			sc.points = sc.points[:len(sc.points)+1] // recycle a released entry
		} else {
			sc.points = append(sc.points, patchPoint{})
		}
		pi = int32(len(sc.points))
		sc.pointAt[s] = pi
		pt := &sc.points[pi-1]
		pt.s = s
		if pt.slotAt == nil {
			pt.slotAt = make([]int32, len(sc.pointAt))
		}
	}
	pt := &sc.points[pi-1]
	if pt.slotAt[d] == 0 {
		pt.dsts = append(pt.dsts, d)
		pt.slotAt[d] = int32(len(pt.dsts))
	}
}

// detour returns the solved request s -> d, nil if it has no detour. The
// request must have been registered with need before the solve.
func (sc *localScratch) detour(s, d graph.NodeID) *Route {
	pt := &sc.points[sc.pointAt[s]-1]
	return pt.dets[pt.slotAt[d]-1]
}

// release zeroes the indexed tables and drops what the build's detours
// keep alive.
func (sc *localScratch) release(failed []graph.EdgeID) {
	for _, ed := range failed {
		sc.downIn[ed] = false
	}
	for i := range sc.points {
		pt := &sc.points[i]
		sc.pointAt[pt.s] = 0
		for _, d := range pt.dsts {
			pt.slotAt[d] = 0
		}
		pt.dsts = pt.dsts[:0]
		clear(pt.dets)
		pt.dets = pt.dets[:0]
	}
	sc.points = sc.points[:0]
}

// mergeAffected merges sc.crossed, one link's affected pairs, into
// sc.affected, the (src, dst)-sorted union of the links merged so far. A
// link's pairs are met in (src, dst) order in a base set built source by
// source, so sorting them is a linear check unless the set is a subpath
// closure.
func (sc *localScratch) mergeAffected() {
	b := sc.crossed
	if !slices.IsSortedFunc(b, affectedPair.compare) {
		slices.SortFunc(b, affectedPair.compare)
	}
	a, out := sc.affected, sc.merged[:0]
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].compare(b[0]) < 0:
			out = append(out, a[0])
			a = a[1:]
		case len(a) > 0 && a[0].NodePair == b[0].NodePair:
			b = b[1:]
		default:
			out = append(out, b[0])
			b = b[1:]
		}
	}
	sc.affected, sc.merged = out, sc.affected
}

func (a affectedPair) compare(b affectedPair) int { return a.NodePair.Compare(b.NodePair) }

// buildLocalPlan computes the epoch's local restoration state for the
// full failed-set: the patches — one per provisioned LSP crossing of every
// down link, named by LSPs and frozen into the epoch's overlay over the
// engine's network (not written) or over none — and the answer each
// affected pair's patched forwarding now delivers. Writer-only, and the whole of it stands
// between a failure and the first restored packet, so it works in four
// passes over writer-owned scratch:
//
//  1. Collect. Walk the provisioned LSPs through each down link (by base
//     path index — no key is hashed) for the patches, and merge the
//     links' sorted primary-crossing lists for the affected pairs; both
//     register the detours they need, grouped by patch point.
//  2. Solve. One pull per patch point (core.Pull) against the patch point's
//     post-failure distance row: each detour is read off the arcs into its
//     target. Patch points are failure endpoints, whose trees the epoch
//     oracle roots anyway; no tree is rooted at a target.
//  3. Patch. Splice each crossing's detour LSPs into its patch, and freeze
//     the set (mpls.NewILMOverlay, which derives the labels).
//  4. Answer. Splice the detours into each affected primary and lay the
//     routes out as per-source rows.
//
// The pairs' stretch is only noted here; it is accounted after the
// snapshot is serving (accountStretch).
func (e *Engine) buildLocalPlan(failed []graph.EdgeID, oracle *spath.Oracle) (*plan, *mpls.ILMOverlay) {
	sc := e.lscratch
	sc.stretch, sc.want = sc.stretch[:0], sc.want[:0]
	if len(failed) == 0 {
		return emptyPlan, nil
	}
	// The patch flavor, which also tags the answers: end-route under
	// SchemeLocal, edge-bypass under SchemeBypass and in hybrid's phase one.
	via := SchemeBypass
	if e.cfg.Scheme == SchemeLocal {
		via = SchemeLocal
	}
	defer sc.release(failed)
	for _, ed := range failed {
		sc.downIn[ed] = true
	}

	// Pass 1: the patches, the affected pairs — the primaries among
	// the paths walked — and the detours both need. The crossings of a
	// pair's primary are requested explicitly — the same requests, since
	// primaries are base paths — so the route construction below never
	// misses.
	sc.affected = sc.affected[:0]
	for _, ed := range failed {
		idxs := e.base.IndicesThroughEdge(ed)
		sc.crossed = sc.crossed[:0]
		for j, idx := range idxs {
			if j > 0 && idxs[j-1] == idx {
				continue // a path crossing ed twice is listed twice; one visit finds both
			}
			lsp := e.lspAt[idx]
			if e.prim[idx] {
				sc.crossed = append(sc.crossed, affectedPair{NodePair: graph.NodePair{Src: lsp.Ingress(), Dst: lsp.Egress()}, lsp: lsp})
			}
			for i, edge := range lsp.Path.Edges {
				if edge != ed {
					continue
				}
				p := mpls.ILMPatch{Router: lsp.Path.Nodes[i], Crossing: lsp, Hop: i, Resume: via != SchemeLocal}
				sc.want = append(sc.want, p)
				sc.need(p.Router, p.End())
			}
		}
		sc.mergeAffected()
	}
	for _, ap := range sc.affected {
		for i, edge := range ap.lsp.Path.Edges {
			if !sc.downIn[edge] {
				continue
			}
			if via == SchemeLocal {
				sc.need(ap.lsp.Path.Nodes[i], ap.Dst)
				break // end-route acts at the first down crossing only
			}
			sc.need(ap.lsp.Path.Nodes[i], ap.lsp.Path.Nodes[i+1])
		}
	}

	// Pass 2: one pull per patch point.
	pull, dead := e.solvers[0].pull, e.live.Dead()
	for i := range sc.points {
		pt := &sc.points[i]
		sc.decs, sc.oks = resized(sc.decs, len(pt.dsts)), resized(sc.oks, len(pt.dsts))
		pull.From(pt.s, oracle.Tree(pt.s).Dists(), dead, pt.dsts, sc.decs, sc.oks)
		for j, dec := range sc.decs {
			var dt *Route
			if sc.oks[j] {
				if dt = ResolveRoute(e.base, e.lspAt, dec); dt != nil { // nil for an empty detour, too
					dt.Path = dec.Concat()
				}
			}
			pt.dets = append(pt.dets, dt)
		}
	}

	// Pass 3: each crossing's detour spliced into its patch (no detour, no
	// patch), and the set frozen into the epoch's overlay.
	var unrestorable int64
	want := sc.want[:0]
	for _, p := range sc.want {
		dt := sc.detour(p.Router, p.End())
		if dt == nil {
			unrestorable++
			continue
		}
		p.Splice = dt.LSPs
		want = append(want, p)
		e.mDetourHops.Add(int64(dt.Path.Hops()))
	}
	sc.want = want
	patch, err := mpls.NewILMOverlay(e.net, sc.want)
	if err != nil {
		// A crossing's row is missing from the provision's tables, or a
		// detour does not join it — a bug, not a runtime condition.
		panic("engine: patching ILM rows: " + err.Error())
	}

	// Pass 4: the answer each affected pair's patched data plane now
	// delivers. sc.affected is (src, dst)-sorted, so each source's run is
	// its row; the rows share two backing arrays.
	rows := make([]*planRow, len(e.canon.at))
	dsts := make([]graph.NodeID, len(sc.affected))
	routes := make([]*Route, len(sc.affected))
	for lo := 0; lo < len(sc.affected); {
		src := sc.affected[lo].Src
		hi := lo
		for ; hi < len(sc.affected) && sc.affected[hi].Src == src; hi++ {
			ap := sc.affected[hi]
			dsts[hi] = ap.Dst
			routes[hi] = e.localRoute(sc, ap, via)
			if rt := routes[hi]; rt != nil {
				sc.stretch = append(sc.stretch, stretchObs{pr: rbpc.Pair(ap.NodePair), cost: rt.Cost})
			} else {
				unrestorable++
			}
		}
		rows[src] = newPlanRow(dsts[lo:hi:hi], routes[lo:hi:hi])
		lo = hi
	}
	e.mLocalPairs.Add(0, int64(len(sc.affected)))
	e.mLocalUnrestorable.Add(0, unrestorable)
	return &plan{rows: rows}, patch
}

// localRoute derives the path an affected pair's traffic takes through the
// patched data plane: the primary up to the first down crossing followed by
// the end-route detour to the destination, or (edge-bypass) the primary
// with every down link spliced out for its detour. Returns nil when any
// required detour does not exist — the pair is locally unrestorable.
func (e *Engine) localRoute(sc *localScratch, ap affectedPair, via Scheme) *Route {
	prim := ap.lsp.Path
	if via == SchemeLocal {
		for i, edge := range prim.Edges {
			if !sc.downIn[edge] {
				continue
			}
			dt := sc.detour(prim.Nodes[i], ap.Dst)
			if dt == nil {
				return nil
			}
			prefix := prim.SubPath(0, i)
			return &Route{
				Via:  via,
				Path: prefix.Concat(dt.Path),
				Cost: prefix.CostIn(e.g) + dt.Cost,
			}
		}
		return nil // unreachable: the primary crosses a failed link
	}
	// Size the spliced walk first: each down link gives way to its
	// detour's hops, so the walk is allocated once at its final length.
	hops := len(prim.Edges)
	for i, edge := range prim.Edges {
		if sc.downIn[edge] {
			dt := sc.detour(prim.Nodes[i], prim.Nodes[i+1])
			if dt == nil {
				return nil
			}
			hops += len(dt.Path.Edges) - 1
		}
	}
	nodes := make([]graph.NodeID, 1, hops+1)
	nodes[0] = prim.Src()
	edges := make([]graph.EdgeID, 0, hops)
	var cost float64
	for i, edge := range prim.Edges {
		if !sc.downIn[edge] {
			nodes = append(nodes, prim.Nodes[i+1])
			edges = append(edges, edge)
			cost += e.g.Edge(edge).W
			continue
		}
		dt := sc.detour(prim.Nodes[i], prim.Nodes[i+1])
		nodes = append(nodes, dt.Path.Nodes[1:]...)
		edges = append(edges, dt.Path.Edges...)
		cost += dt.Cost
	}
	return &Route{Via: via, Path: graph.Path{Nodes: nodes, Edges: edges}, Cost: cost}
}

// accountStretch feeds Stats.Stretch with the transition's restorable
// affected pairs: local cost over the pair's post-failure shortest
// distance, in permille. It runs after the snapshot the costs belong to is
// serving, because the denominators are not free: dist returns the
// distance for a pair, Unreachable (or 0) to skip it.
func (e *Engine) accountStretch(dist func(rbpc.Pair) float64) {
	sc := e.lscratch
	for _, o := range sc.stretch {
		if d := dist(o.pr); d > 0 && d != spath.Unreachable {
			e.mStretch.Add(int64(math.Round(1000 * o.cost / d)))
		}
	}
	sc.stretch = sc.stretch[:0]
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

// now reads the engine's clock: Config.Clock where one is injected, else the
// wall clock.
func (e *Engine) now() time.Time {
	if e.cfg.Clock != nil {
		return e.cfg.Clock()
	}
	return time.Now()
}

// noteSwitchover records a hybrid transition's convergence deadline: once
// the engine's clock reads detected + maxHorizon, the flood has reached the
// last reachable router and Snapshot.Converged turns true. Nothing waits for
// it — Snapshot.Route gates on the clock per read — so the deadline is only
// kept for Stats to count (settleSwitchovers); an instant flood is counted
// here.
func (e *Engine) noteSwitchover(detected time.Time, maxHorizon time.Duration) {
	if maxHorizon <= 0 {
		e.mConverged.Add(0, 1)
		return
	}
	e.switchMu.Lock()
	defer e.switchMu.Unlock()
	e.switchovers = append(e.switchovers, detected.Add(maxHorizon))
}

// settleSwitchovers counts every recorded deadline the engine's clock has
// reached as converged and keeps the rest pending.
func (e *Engine) settleSwitchovers() {
	now := e.now()
	e.switchMu.Lock()
	defer e.switchMu.Unlock()
	pending := e.switchovers[:0]
	for _, at := range e.switchovers {
		if now.Before(at) {
			pending = append(pending, at)
		}
	}
	e.mConverged.Add(0, int64(len(e.switchovers)-len(pending)))
	e.switchovers = pending
}

// dropSwitchovers forgets every pending deadline, uncounted.
func (e *Engine) dropSwitchovers() {
	e.switchMu.Lock()
	defer e.switchMu.Unlock()
	e.switchovers = nil
}

// publishLocal builds and publishes the local-restoration epoch for the
// new failed-set. Under SchemeLocal/SchemeBypass this is the transition's
// only epoch — unaffected pairs serve canonical rows, affected pairs the
// local plan — and publishLocal returns done=true. Under SchemeHybrid it
// is phase one of two: the previous epoch's rows are carried (sources have
// not heard of the transition yet, so their precomputed answers are
// honestly stale) beneath the fresh local plan, and the caller continues
// into the source-plan build, which publishes phase two under the same
// patch rows with srcReady set.
//
// FaultStaleBypass short-circuits the rebuild: the previous epoch's patch
// rows and local plan are carried.
func (e *Engine) publishLocal(prev *Snapshot, start time.Time, failed []graph.EdgeID, key string, fv *graph.FailureView, oracle *spath.Oracle, newlyDown, repairedIDs []graph.EdgeID) (snap1 *Snapshot, done bool) {
	t0 := time.Now()
	lp, patch := prev.local, prev.patch
	if e.cfg.Fault != FaultStaleBypass {
		lp, patch = e.buildLocalPlan(failed, oracle)
	}

	hybrid := e.cfg.Scheme == SchemeHybrid
	var horizon []time.Duration
	var maxH time.Duration
	if hybrid {
		delta := make([]graph.EdgeID, 0, len(newlyDown)+len(repairedIDs))
		delta = append(delta, newlyDown...)
		delta = append(delta, repairedIDs...)
		horizon, maxH = e.floodHorizons(delta, fv)
	}
	detected := e.now()
	var over []*planRow
	if hybrid {
		over = prev.over
	}
	next := &Snapshot{
		epoch:      prev.epoch + 1,
		failed:     failed,
		key:        key,
		fv:         fv,
		net:        e.net,
		patch:      patch,
		oracle:     oracle,
		created:    time.Now(),
		canon:      e.canon,
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
	e.inc.localNs.Add(time.Since(t0).Nanoseconds())
	e.mLocalBuild.Record(0, time.Since(start))
	e.mEpochs.Add(0, 1)
	if !hybrid {
		e.mBuild.Record(0, time.Since(start))
		// No source plan follows: the stretch denominators come from the
		// epoch oracle, one tree per affected source, now that the local
		// answers are serving.
		e.accountStretch(func(pr rbpc.Pair) float64 { return oracle.Dist(pr.Src, pr.Dst) })
	}
	if e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(next)
	}
	return next, !hybrid
}
