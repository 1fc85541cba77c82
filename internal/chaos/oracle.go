package chaos

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rbpc/internal/core"
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
)

// costEps is the tolerance for cost comparisons. Topology weights are
// small integers (Waxman links are unit weight), so any true divergence
// is at least 1; the epsilon only absorbs float association noise on
// weighted graphs.
const costEps = 1e-6

// checker holds the oracle state for one run. The harness calls it from
// the single schedule-execution goroutine, so it needs no locking.
type checker struct {
	g    *graph.Graph
	all  *paths.AllShortest // all-shortest base of the original graph (theorem DP)
	base *paths.Explicit    // provisioned base set (membership oracle)

	// scheme is the restoration scheme of the engine under test. Answer
	// checks dispatch on each Route's own Via flavor; the scheme decides
	// how a nil answer for a connected pair is judged (only edge-bypass
	// may honestly fail one) and how flushed snapshots compare to the
	// source-scheme reference.
	scheme engine.Scheme
	// prov's primaries are the input of the local schemes' Section-4
	// constructions, recomputed here independently.
	prov rbpc.Provision

	// lastEpoch tracks query-stream monotonicity per epoch sequence:
	// key 0 for the single engine, the shard index in sharded runs (each
	// shard publishes its own independent epoch counter).
	lastEpoch map[int]uint64
	probes    int

	// Dijkstra scratch, reused across checks.
	dist []float64
	done []bool
}

func newChecker(w *world, scheme engine.Scheme) *checker {
	n := w.g.Order()
	return &checker{
		g:         w.g,
		all:       w.all,
		base:      w.sys.Base(),
		scheme:    scheme,
		prov:      w.prov,
		lastEpoch: make(map[int]uint64),
		dist:      make([]float64, n),
		done:      make([]bool, n),
	}
}

// primary returns the pristine primary LSP of (src, dst), nil where the
// provision has none.
func (ck *checker) primary(src, dst graph.NodeID) *mpls.LSP {
	if idx, ok := ck.prov.Primary(src, dst); ok {
		return ck.prov.BaseLSPs[idx]
	}
	return nil
}

// bruteDist is the independent reference: a naive O(n^2) Dijkstra over
// the original adjacency minus the down edges. It deliberately shares no
// code with internal/spath (no heap, no CSR, no failure views), so a bug
// in the optimized solvers cannot hide itself here.
func (ck *checker) bruteDist(down map[graph.EdgeID]bool, s, d graph.NodeID) float64 {
	n := ck.g.Order()
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		ck.dist[i] = inf
		ck.done[i] = false
	}
	ck.dist[s] = 0
	for {
		u := graph.NodeID(-1)
		best := inf
		for v := 0; v < n; v++ {
			if !ck.done[v] && ck.dist[v] < best {
				best, u = ck.dist[v], graph.NodeID(v)
			}
		}
		if u < 0 {
			return ck.dist[d]
		}
		if u == d {
			return ck.dist[u]
		}
		ck.done[u] = true
		for _, a := range ck.g.Arcs(u) {
			if down[a.Edge] {
				continue
			}
			if w := ck.dist[u] + ck.g.Edge(a.Edge).W; w < ck.dist[a.To] {
				ck.dist[a.To] = w
			}
		}
	}
}

// checkResult validates one served answer against the epoch it was
// served from. All checks are relative to res.Snap, so they are sound
// regardless of which epoch a racing query happened to observe. sh is
// the epoch-sequence key — 0 for a single engine, the owning shard's
// index in sharded runs.
func (ck *checker) checkResult(step, sh int, res engine.Result) *Violation {
	snap := res.Snap
	vio := func(kind, format string, args ...interface{}) *Violation {
		return &Violation{Step: step, Epoch: snap.Epoch(), Kind: kind,
			Detail: fmt.Sprintf("%d->%d ", res.Src, res.Dst) + fmt.Sprintf(format, args...)}
	}

	// Oracle (d), first half: the serial query stream must never walk
	// backwards in epochs — the atomic snapshot swap makes published
	// epochs immediately and permanently visible.
	if snap.Epoch() < ck.lastEpoch[sh] {
		return vio("monotonicity", "observed epoch %d after epoch %d", snap.Epoch(), ck.lastEpoch[sh])
	}
	ck.lastEpoch[sh] = snap.Epoch()

	failed := snap.Failed()
	k := len(failed)
	down := make(map[graph.EdgeID]bool, k)
	for _, e := range failed {
		down[e] = true
	}

	if res.Route == nil {
		if res.Src == res.Dst || math.IsInf(ck.bruteDist(down, res.Src, res.Dst), 1) {
			return nil
		}
		// The pair is connected. Edge-bypass (and hybrid before its
		// horizon) is the one flavor that may honestly fail a connected
		// pair: a detour must exist around every down crossing of its
		// primary, and a crossing whose endpoints the failures disconnect
		// has none. Every other nil answer is a violation.
		if ck.scheme == engine.SchemeBypass || ck.scheme == engine.SchemeHybrid {
			lr, affected := snap.LocalRoute(res.Src, res.Dst)
			if affected && lr == nil && ck.bypassBlocked(down, res.Src, res.Dst) {
				return nil
			}
		}
		return vio("unroutable-but-connected", "reported unroutable, but a path survives %v", failed)
	}
	rt := res.Route

	// Local-flavor answers (end-route and edge-bypass patches) carry a
	// concrete path instead of source components; they are held to an
	// exact independent recomputation of their Section-4 construction.
	if rt.Via != engine.SchemeSource {
		return ck.checkLocalResult(step, snap, down, res.Src, res.Dst, rt)
	}

	// A hybrid snapshot that has not converged serves honestly stale
	// source answers: phase one carries the previous epoch's rows because
	// the sources have not heard the flood yet. The fresh oracles for
	// this failed-set are the local answers (checked above); the stale
	// rows are only checked for chain continuity and, when the advertised
	// path is still fully alive, data-plane delivery.
	if snap.Scheme() == engine.SchemeHybrid && !snap.Converged() {
		return ck.checkStaleSource(step, snap, down, res.Src, res.Dst, rt)
	}

	// Structural validity: the components chain src to dst and ride only
	// links alive in this epoch.
	at := res.Src
	for i, l := range rt.LSPs {
		if l.Path.Src() != at {
			return vio("chain", "component %d starts at %d, want %d", i, l.Path.Src(), at)
		}
		for _, e := range l.Path.Edges {
			if down[e] {
				return vio("dead-edge", "component %d rides failed link %d (failed-set %v)", i, e, failed)
			}
		}
		at = l.Path.Dst()
	}
	if at != res.Dst {
		return vio("chain", "concatenation ends at %d", at)
	}

	// Oracle (c): Corollary-4 membership. Restoration only concatenates
	// pre-provisioned base paths and bare edges — every multi-hop
	// component must be a member of the provisioned base set.
	for i, l := range rt.LSPs {
		if l.Path.Hops() > 1 && !ck.base.Contains(l.Path) {
			return vio("membership", "component %d (%v) is not a provisioned base path", i, l.Path)
		}
	}

	// Oracle (b), served form: at most k+1 base paths interleaved with at
	// most k bare edges means at most 2k+1 components in total.
	if len(rt.LSPs) > 2*k+1 {
		return vio("interleaving-bound", "%d components for k=%d failures (bound %d)", len(rt.LSPs), k, 2*k+1)
	}

	// Oracle (a): the served cost must be the true post-failure shortest
	// distance, per the independent Dijkstra.
	want := ck.bruteDist(down, res.Src, res.Dst)
	if math.IsInf(want, 1) {
		return vio("optimality", "served a route but the pair is disconnected under %v", failed)
	}
	if math.Abs(rt.Cost-want) > costEps {
		return vio("optimality", "served cost %v, post-failure shortest %v (failed %v)", rt.Cost, want, failed)
	}

	// Oracle (b), theorem form: the served path must admit a
	// decomposition into at most k+1 original shortest paths with at most
	// k bare edges — the exact DP behind Theorems 2/3.
	full := rt.LSPs[0].Path
	for _, l := range rt.LSPs[1:] {
		full = full.Concat(l.Path)
	}
	if min := core.MinPathComponents(ck.all, full, k); min < 0 || min > k+1 {
		return vio("theorem-bound", "served path needs %d shortest-path components with <= %d edges (bound %d)", min, k, k+1)
	}

	// End-to-end forwarding on the epoch's own data plane: the stack the
	// source pushes in this epoch (Snapshot.Send) must deliver over the
	// epoch's ILM tables and link state, and on unit-weight topologies must
	// walk exactly the served cost. A process-mode answer is walked on the
	// replica that answered it: the provision's network under the replica's
	// own failure view.
	pkt, err := snap.Send(res.Src, res.Dst)
	ck.probes++
	if err != nil {
		return vio("forwarding", "data plane dropped the packet: %v", err)
	}
	if pkt.At != res.Dst {
		return vio("forwarding", "data plane delivered to %d", pkt.At)
	}
	if ck.g.UnitWeights() && math.Abs(float64(pkt.Hops)-rt.Cost) > costEps {
		return vio("forwarding", "data plane walked %d hops, served cost %v (stale forwarding state)", pkt.Hops, rt.Cost)
	}
	return nil
}

// checkLocalResult validates an end-route or edge-bypass answer: a
// structurally-sound path over alive links whose advertised cost equals
// both the path's own cost and an exact independent recomputation of the
// flavor's Section-4 construction, at or above the true post-failure
// shortest distance, and whose patched data plane delivers the probe in
// exactly the advertised number of hops.
func (ck *checker) checkLocalResult(step int, snap *engine.Snapshot, down map[graph.EdgeID]bool, src, dst graph.NodeID, rt *engine.Route) *Violation {
	vio := func(kind, format string, args ...interface{}) *Violation {
		return &Violation{Step: step, Epoch: snap.Epoch(), Kind: kind,
			Detail: fmt.Sprintf("%d->%d ", src, dst) + fmt.Sprintf(format, args...)}
	}
	if rt.Via != engine.SchemeLocal && rt.Via != engine.SchemeBypass {
		return vio("chain", "unknown answer flavor %v", rt.Via)
	}
	if len(rt.LSPs) != 0 {
		return vio("chain", "local answer carries source components")
	}
	p := rt.Path
	if len(p.Nodes) != len(p.Edges)+1 || p.Src() != src || p.Dst() != dst {
		return vio("chain", "local path runs %v, want %d->%d", p.Nodes, src, dst)
	}
	var cost float64
	for i, ed := range p.Edges {
		e := ck.g.Edge(ed)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
			return vio("chain", "hop %d rides link %d-%d, path says %d-%d", i, e.U, e.V, u, v)
		}
		if down[ed] {
			return vio("dead-edge", "local path rides failed link %d (failed-set %v)", ed, snap.Failed())
		}
		cost += e.W
	}
	if math.Abs(cost-rt.Cost) > costEps {
		return vio("local-exact", "advertised cost %v, but the served path costs %v", rt.Cost, cost)
	}
	if want := ck.bruteDist(down, src, dst); rt.Cost < want-costEps {
		return vio("optimality", "served cost %v beats the post-failure shortest %v", rt.Cost, want)
	}
	lsp := ck.primary(src, dst)
	if lsp == nil {
		return vio("local-exact", "local answer for a pair with no provisioned primary")
	}
	exact, ok := ck.localExactCost(rt.Via, down, lsp, dst)
	if !ok {
		return vio("local-exact", "the %v construction has no answer for this failed-set, yet one was served", rt.Via)
	}
	if math.Abs(rt.Cost-exact) > costEps {
		return vio("local-exact", "served cost %v, independent %v recomputation says %v", rt.Cost, rt.Via, exact)
	}
	ck.probes++
	pkt, err := snap.Send(src, dst)
	// Before a hybrid snapshot converges, what the source pushes is its
	// last pre-flood plan — possibly a previous transition's restoration
	// plan, not the canonical primary this local answer patches — so the
	// probe may honestly walk a different (patched) route than the
	// advertised path. Delivery must still work unless some down link is
	// non-bridgeable, in which case the patch that would carry the stale
	// plan provably cannot exist.
	if relaxed := snap.Scheme() == engine.SchemeHybrid && !snap.Converged(); relaxed {
		if err != nil || pkt.At != dst {
			for _, ed := range snap.Failed() {
				e := ck.g.Edge(ed)
				if math.IsInf(ck.bruteDist(down, e.U, e.V), 1) {
					return nil
				}
			}
			return vio("forwarding", "pre-horizon data plane did not deliver (at %v, err %v) with every failed link bridgeable", pkt, err)
		}
		return nil
	}
	if err != nil {
		return vio("forwarding", "data plane dropped the packet: %v", err)
	}
	if pkt.At != dst {
		return vio("forwarding", "data plane delivered to %d (label-stack rewrite broken)", pkt.At)
	}
	if pkt.Hops != p.Hops() {
		return vio("forwarding", "data plane walked %d hops, served path has %d", pkt.Hops, p.Hops())
	}
	return nil
}

// checkStaleSource loosely validates a pre-convergence hybrid source
// answer: the components must still chain src to dst, and when the
// advertised path is fully alive the phase-one data plane must deliver.
// A path riding a newly-down link is exactly the honest staleness the
// hybrid scheme models — the patched ILM rows, not this answer, carry
// the traffic until the source's horizon passes — so nothing further is
// checked against this epoch.
func (ck *checker) checkStaleSource(step int, snap *engine.Snapshot, down map[graph.EdgeID]bool, src, dst graph.NodeID, rt *engine.Route) *Violation {
	vio := func(kind, format string, args ...interface{}) *Violation {
		return &Violation{Step: step, Epoch: snap.Epoch(), Kind: kind,
			Detail: fmt.Sprintf("%d->%d ", src, dst) + fmt.Sprintf(format, args...)}
	}
	at := src
	stale := false
	for i, l := range rt.LSPs {
		if l.Path.Src() != at {
			return vio("chain", "component %d starts at %d, want %d", i, l.Path.Src(), at)
		}
		for _, e := range l.Path.Edges {
			if down[e] {
				stale = true
			}
		}
		at = l.Path.Dst()
	}
	if at != dst {
		return vio("chain", "concatenation ends at %d", at)
	}
	if stale {
		return nil
	}
	ck.probes++
	pkt, err := snap.Send(src, dst)
	if err != nil {
		return vio("forwarding", "data plane dropped the packet: %v", err)
	}
	if pkt.At != dst {
		return vio("forwarding", "data plane delivered to %d", pkt.At)
	}
	return nil
}

// localExactCost recomputes, independently of the engine, the cost the
// flavor's Section-4 construction must serve for the pair with primary
// lsp: end-route follows the primary to its first down crossing and
// detours to the destination; edge-bypass keeps the primary and splices
// every down crossing with a detour between its endpoints. Both detours
// are post-failure shortest paths, so bruteDist (which shares no code
// with the engine's solvers) makes the recomputation exact. ok is false
// when the construction has no answer — a required detour's endpoints
// are disconnected, or (end-route) the primary has no down crossing.
func (ck *checker) localExactCost(via engine.Scheme, down map[graph.EdgeID]bool, lsp *mpls.LSP, dst graph.NodeID) (cost float64, ok bool) {
	if via == engine.SchemeLocal {
		var prefix float64
		for i, e := range lsp.Path.Edges {
			if down[e] {
				d := ck.bruteDist(down, lsp.Path.Nodes[i], dst)
				if math.IsInf(d, 1) {
					return 0, false
				}
				return prefix + d, true
			}
			prefix += ck.g.Edge(e).W
		}
		return 0, false
	}
	for i, e := range lsp.Path.Edges {
		if !down[e] {
			cost += ck.g.Edge(e).W
			continue
		}
		d := ck.bruteDist(down, lsp.Path.Nodes[i], lsp.Path.Nodes[i+1])
		if math.IsInf(d, 1) {
			return 0, false
		}
		cost += d
	}
	return cost, true
}

// bypassBlocked reports whether edge-bypass honestly cannot restore the
// pair: its primary has a down crossing whose endpoints the failures
// disconnect, so no detour exists. (With only connected crossings the
// construction always succeeds, so a nil bypass answer for a connected
// pair is a violation unless this holds.)
func (ck *checker) bypassBlocked(down map[graph.EdgeID]bool, src, dst graph.NodeID) bool {
	lsp := ck.primary(src, dst)
	if lsp == nil {
		return false
	}
	_, ok := ck.localExactCost(engine.SchemeBypass, down, lsp, dst)
	return !ok
}

// checkEquivalence compares the flushed system under test against the
// lockstep FullRebuild reference. snaps are the snapshots it serves from —
// one for a lone engine, one per shard of a consistent cross-shard view —
// and owner names the one serving each source. Every snapshot must carry
// the reference's failed-set, and every pair, read from the snapshot
// serving its source, whose answer is source-flavored must have the same
// routability, the same cost bits, and the same component path sequences.
// Label stacks are deliberately excluded (label numbers depend on
// signaling order, which the contract does not cover); a deterministic
// per-flush sample of oracle distances, each read from the snapshot
// serving its source, is compared at the bit level too. Intermediate epoch
// counts are not compared — either writer may take bursts queued together
// in one transition — but flushed serving state is path-independent for a
// correct engine, which is exactly the property the incremental builder
// must preserve.
//
// Local-flavor answers (end-route/edge-bypass schemes, or a hybrid whose
// flood is frozen) cannot bit-match the source reference: they are held
// instead to the exact Section-4 recomputation at or above the
// reference's optimum, and a nil answer against a routable reference is
// tolerated only for a provably blocked edge-bypass. A converged hybrid
// serves source answers everywhere, so it must bit-match in full — the
// machine check of the switchover property.
func (ck *checker) checkEquivalence(step int, snaps []*engine.Snapshot, owner func(graph.NodeID) int, want *engine.Snapshot) *Violation {
	wf := want.Failed()
	for i, got := range snaps {
		if !slices.Equal(got.Failed(), wf) {
			return &Violation{Step: step, Epoch: got.Epoch(), Kind: "equivalence",
				Detail: fmt.Sprintf("snapshot %d of %d: failed-set %v, reference %v", i, len(snaps), got.Failed(), wf)}
		}
	}
	down := make(map[graph.EdgeID]bool, len(wf))
	for _, e := range wf {
		down[e] = true
	}
	n := ck.g.Order()
	for s := 0; s < n; s++ {
		src := graph.NodeID(s)
		got := snaps[owner(src)]
		vio := func(format string, args ...interface{}) *Violation {
			return &Violation{Step: step, Epoch: got.Epoch(), Kind: "equivalence",
				Detail: fmt.Sprintf(format, args...)}
		}
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			dst := graph.NodeID(d)
			a, b := got.Route(src, dst), want.Route(src, dst)
			if a == nil && b == nil {
				continue
			}
			if a == nil {
				if (ck.scheme == engine.SchemeBypass || ck.scheme == engine.SchemeHybrid) &&
					ck.bypassBlocked(down, src, dst) {
					continue
				}
				return vio("pair %d->%d routable false, reference true (failed %v)", s, d, wf)
			}
			if b == nil {
				return vio("pair %d->%d routable true, reference false (failed %v)", s, d, wf)
			}
			if a.Via != engine.SchemeSource {
				lsp := ck.primary(src, dst)
				if lsp == nil {
					return vio("pair %d->%d local answer with no provisioned primary", s, d)
				}
				exact, ok := ck.localExactCost(a.Via, down, lsp, dst)
				if !ok || math.Abs(a.Cost-exact) > costEps {
					return vio("pair %d->%d local cost %v, independent %v recomputation says %v (failed %v)",
						s, d, a.Cost, a.Via, exact, wf)
				}
				if a.Cost < b.Cost-costEps {
					return vio("pair %d->%d local cost %v beats the reference optimum %v", s, d, a.Cost, b.Cost)
				}
				continue
			}
			if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
				return vio("pair %d->%d cost %v, reference %v (failed %v)", s, d, a.Cost, b.Cost, wf)
			}
			if len(a.LSPs) != len(b.LSPs) {
				return vio("pair %d->%d has %d components, reference %d", s, d, len(a.LSPs), len(b.LSPs))
			}
			for i := range a.LSPs {
				if !a.LSPs[i].Path.Equal(b.LSPs[i].Path) {
					return vio("pair %d->%d component %d path %v, reference %v", s, d, i, a.LSPs[i].Path, b.LSPs[i].Path)
				}
			}
		}
	}
	for k := 0; k < 8; k++ {
		src := graph.NodeID((step*5 + k*3) % n)
		dst := graph.NodeID((step*7 + k*11 + 1) % n)
		got := snaps[owner(src)]
		da, db := got.Oracle().Dist(src, dst), want.Oracle().Dist(src, dst)
		if math.Float64bits(da) != math.Float64bits(db) {
			return &Violation{Step: step, Epoch: got.Epoch(), Kind: "equivalence",
				Detail: fmt.Sprintf("dist %d->%d = %v, reference %v (failed %v)", src, dst, da, db, wf)}
		}
	}
	return nil
}

// checkFlush validates the snapshot after a flush barrier: oracle (d),
// second half. Every event sent before the flush is reflected, so the
// snapshot's failed-set must equal the reference model exactly. sh keys
// the epoch sequence as in checkResult.
func (ck *checker) checkFlush(step, sh int, snap *engine.Snapshot, model map[graph.EdgeID]bool) *Violation {
	if snap.Epoch() < ck.lastEpoch[sh] {
		return &Violation{Step: step, Epoch: snap.Epoch(), Kind: "monotonicity",
			Detail: fmt.Sprintf("flushed epoch %d after epoch %d", snap.Epoch(), ck.lastEpoch[sh])}
	}
	ck.lastEpoch[sh] = snap.Epoch()

	failed := snap.Failed()
	agree := len(failed) == len(model)
	if agree {
		for _, e := range failed {
			if !model[e] {
				agree = false
				break
			}
		}
	}
	if !agree {
		want := make([]graph.EdgeID, 0, len(model))
		for e := range model {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return &Violation{Step: step, Epoch: snap.Epoch(), Kind: "flush-agreement",
			Detail: fmt.Sprintf("snapshot failed-set %v, event stream says %v", failed, want)}
	}
	return nil
}
