package engine

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/spath"
)

// repairSlack scales the float-noise margin of the repair-improvement
// rescan: a repaired edge whose best s–x–e–y–t bound lands within slack of
// the served cost is conservatively treated as an improvement and the pair
// recomputed — an exact tie could change the deterministic route choice,
// so only strictly-worse detours may be reused.
const repairSlack = 1e-9

// incCounters is the writer's incremental-build telemetry. Fields are
// atomic because Stats() scrapes them from arbitrary goroutines while the
// writer publishes.
type incCounters struct {
	pairsReused     atomic.Int64
	pairsRecomputed atomic.Int64
	entering        atomic.Int64
	leaving         atomic.Int64
	stale           atomic.Int64
	improved        atomic.Int64
	fullRebuilds    atomic.Int64
	affectedNs      atomic.Int64
	solveNs         atomic.Int64
	resolveNs       atomic.Int64
	assembleNs      atomic.Int64
	localNs         atomic.Int64
}

// IncrementalStats is a point-in-time scrape of the incremental epoch
// builder's counters, cumulative since engine start.
type IncrementalStats struct {
	// PairsReused counts plan entries carried verbatim from the previous
	// epoch's plan; PairsRecomputed counts entries re-solved (entering,
	// stale, or repair-improvable pairs).
	PairsReused     int64
	PairsRecomputed int64
	// Entering/Leaving count pairs whose primary crossed into / out of
	// the failed-set across all published transitions.
	Entering int64
	Leaving  int64
	// StaleRoutes counts reuses rejected because the served route crossed
	// a newly-failed edge; RepairImproved counts reuses rejected because a
	// repaired edge offered a route at least as good.
	StaleRoutes    int64
	RepairImproved int64
	// TreesAdopted is always 0: an epoch's trees are derived from the
	// pristine ones (spath.Oracle.Derive), never carried from the epoch
	// before. FullRebuilds counts reference-mode plans.
	TreesAdopted int64
	FullRebuilds int64
	// Per-stage cumulative build time: affected-pair classification,
	// bounded decomposition solves, LSP resolution, and snapshot assembly
	// (overlay accounting and snapshot construction — the rows are published
	// as the plan built them). Solves and resolution run in one fan-out, whose
	// wall SolveNanos and ResolveNanos split between them. LocalNanos is the
	// local schemes' epoch, hybrid's phase one: the local plan
	// (buildLocalPlan), the flood horizons and the swap; 0 under
	// SchemeSource.
	AffectedNanos int64
	SolveNanos    int64
	ResolveNanos  int64
	AssembleNanos int64
	LocalNanos    int64
}

func (c *incCounters) snapshot() IncrementalStats {
	return IncrementalStats{
		PairsReused:     c.pairsReused.Load(),
		PairsRecomputed: c.pairsRecomputed.Load(),
		Entering:        c.entering.Load(),
		Leaving:         c.leaving.Load(),
		StaleRoutes:     c.stale.Load(),
		RepairImproved:  c.improved.Load(),
		FullRebuilds:    c.fullRebuilds.Load(),
		AffectedNanos:   c.affectedNs.Load(),
		SolveNanos:      c.solveNs.Load(),
		ResolveNanos:    c.resolveNs.Load(),
		AssembleNanos:   c.assembleNs.Load(),
		LocalNanos:      c.localNs.Load(),
	}
}

// routeUses reports whether the route's concrete paths cross any edge
// marked in down (indexed by EdgeID) — the staleness test of the incremental
// builder. The route is the actual label chain the previous epoch's search
// settled, so a route avoiding every newly-failed edge has its entire
// winning offer chain intact: failing other edges only deletes losing
// candidates.
//
//rbpc:hotpath
func routeUses(rt *Route, down []bool) bool {
	for _, l := range rt.LSPs {
		for _, ed := range l.Path.Edges {
			if down[ed] {
				return true
			}
		}
	}
	return false
}

// repairedLink is one link a transition repaired, with the new view's
// distance rows from its two endpoints — the epoch oracle's trees rooted
// there, fetched once per transition: a burst repairing R edges prices
// every surviving pair with only 2|R| tree builds.
type repairedLink struct {
	w      float64
	du, dv []float64
}

// repairImproves reports whether some repaired link could hand pr a
// restoration route at least as good as rt (or, for an unroutable pair,
// any route at all). The bound d(s,x)+w+d(y,t) over both orientations of
// a repaired link (x,y,w) is the shortest new-view s–t distance through
// that link (the graph is undirected, so d(s,x) is x's row at s).
// Comparisons are ≤ cost+slack: ties count as improvements, because an
// equal-cost path through a repaired link could win the deterministic
// tie-break and change the canonical decomposition.
func repairImproves(repaired []repairedLink, pr rbpc.Pair, rt *Route) bool {
	for _, ed := range repaired {
		dsu, dvt := ed.du[pr.Src], ed.dv[pr.Dst]
		dsv, dut := ed.dv[pr.Src], ed.du[pr.Dst]
		if rt == nil {
			// Any new s–t connection must traverse a repaired link, so the
			// pair became routable iff both legs of some orientation exist.
			if (dsu != spath.Unreachable && dvt != spath.Unreachable) ||
				(dsv != spath.Unreachable && dut != spath.Unreachable) {
				return true
			}
			continue
		}
		slack := repairSlack * (rt.Cost + 1)
		if dsu != spath.Unreachable && dvt != spath.Unreachable && dsu+ed.w+dvt <= rt.Cost+slack {
			return true
		}
		if dsv != spath.Unreachable && dut != spath.Unreachable && dsv+ed.w+dut <= rt.Cost+slack {
			return true
		}
	}
	return false
}

// planScratch is incrementalPlan's working memory: writer-owned, reused
// across transitions, so a transition allocates its new rows and nothing
// to find them. downNew is all-false between builds.
type planScratch struct {
	moves    paths.LiveMoves  // the base paths the transition broke and healed
	entering []graph.NodePair // the served pairs whose primary it broke, (src, dst)-sorted
	downNew  []bool           // by EdgeID: the link went down in this transition
	repaired []repairedLink   // the links it repaired
	jobs     []solveJob       // the sources with pairs to solve, ascending
	dsts     []graph.NodeID   // the jobs' destinations, one dst-sorted span per job
	slots    []int32          // parallel to dsts: the entry of the job's row the route goes to
	// The fan-out's answers, parallel to dsts: each job's worker fills the
	// job's span and resolves it before it pulls again, which reuses the
	// components (core.Pull.From). A decomposition names base paths,
	// nothing a transition built, so what lingers here pins no row.
	decs []core.Decomposition
	oks  []bool
}

// resized returns s with length n and contents unspecified, reusing its
// backing array when that is large enough.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// solveWorker is one build worker's solve scratch: its pull and the SSSP
// arena in which it derives each source's post-failure distance row
// (spath.Oracle.Row), which the pull reads and nothing keeps.
type solveWorker struct {
	pull *core.Pull
	sp   *spath.Solver
	// tap, nil outside tests, sees every row the worker pulls from, with
	// its source and the oracle it came from.
	tap func(src graph.NodeID, row []float64, o *spath.Oracle)
}

// resolveRow resolves a job's solved entries — its span of the fan-out's
// answers in sc — into the nil slots of its row and returns the row. The routes are carved from one exact-size []Route
// and their LSP windows from one exact-size []*mpls.LSP: two allocations a
// row, where a route each took two. A served Route thus shares memory with
// its own row's routes only, which the row keeps alive anyway; carving
// from blocks shared across rows let one retained answer pin the routes
// of rows long replaced (DESIGN.md §12).
func (e *Engine) resolveRow(job *solveJob, sc *planScratch) *planRow {
	slots, decs, oks := sc.slots[job.lo:job.hi], sc.decs[job.lo:job.hi], sc.oks[job.lo:job.hi]
	nr, nl := 0, 0
	for j, ok := range oks {
		if ok {
			nr++
			nl += len(decs[j].Components)
		}
	}
	block, win := make([]Route, nr), make([]*mpls.LSP, nl)
	for j, ok := range oks {
		if !ok {
			continue
		}
		n := len(decs[j].Components)
		if resolve(e.base, e.lspAt, decs[j], win[:n:n], &block[0]) {
			job.routes[slots[j]] = &block[0]
			block, win = block[1:], win[n:]
		}
	}
	return newPlanRow(job.dsts, job.routes)
}

// solveJob is one source's share of the solve fan-out: the span of
// planScratch.dsts to solve, and the source's next row under construction
// (kept entries in place, nil at the slots awaiting a solved route).
type solveJob struct {
	src    graph.NodeID
	lo, hi int
	dsts   []graph.NodeID
	routes []*Route
}

// incrementalPlan builds plan(key) from the previous epoch's rows instead
// of from scratch. Classification walks them source by source, in step with
// the source's run of the (src, dst)-sorted entering pairs:
//
//   - entries whose primary is whole again (its liveness count is zero)
//     drop out and fall back to canonical;
//   - entries whose served route crosses a newly-failed edge are stale and
//     re-solved;
//   - entries a repaired edge could improve (or tie) are re-solved — unless
//     FaultSkipRepairRescan injects exactly that omission;
//   - every other entry is reused verbatim: its winning offer chain is
//     intact and no repaired edge can beat it, so a from-scratch solve would
//     reproduce it bit-for-bit.
//
// A source with nothing entering, leaving, stale or improvable keeps its row
// pointer — the paper's FEC delta is the rows that moved. Any other source
// gets one new row, merged in dst order from its kept entries and its
// solved ones. The solved ones go through a
// work-stealing fan-out of jobs, one solveWorker per goroutine. A worker
// derives the source's true post-failure distance row in its own arena
// (spath.Oracle.Row: a repair of the pristine tree's labels, memoized
// nowhere), pulls every restoration off it and the arcs into each
// destination (core.Pull), and resolves the answers into LSPs at once —
// a table read per component, carved a row at a time (resolveRow) — so
// the job's row is done when the worker moves on. Answers land in
// pre-sized slots and rows in distinct indices: no locks on the assembly
// path. The fan-out's wall is split between IncrementalStats.SolveNanos
// and ResolveNanos by the workers' time in each.
//
// hit reports a repair-only burst that classification proves needs no solve
// — surviving entries reused, leaving ones dropped: the failed-set was
// answered from cached state, which the caller accounts a plan-cache hit.
// When nothing left the plan either, the previous rows themselves are the
// new plan, aliased under the new key.
func (e *Engine) incrementalPlan(key string, prev []*planRow, oracle *spath.Oracle, newlyDown []graph.EdgeID, entering []graph.NodePair, repaired []graph.Edge) (_ *plan, hit bool) {
	t0 := time.Now()
	sc := e.pscratch
	dead := e.live.Dead()
	for _, ed := range newlyDown {
		sc.downNew[ed] = true
	}
	sc.repaired = sc.repaired[:0]
	if e.cfg.Fault != FaultSkipRepairRescan {
		for _, ed := range repaired {
			sc.repaired = append(sc.repaired, repairedLink{w: ed.W,
				du: oracle.Tree(ed.U).Dists(), dv: oracle.Tree(ed.V).Dists()})
		}
	}
	sc.jobs, sc.dsts, sc.slots = sc.jobs[:0], sc.dsts[:0], sc.slots[:0]

	var rows []*planRow // the new plan's; copied from prev when the first source changes
	var reused, stale, improved int64
	for s, at := 0, 0; s < len(e.canon.at); s++ {
		src := graph.NodeID(s)
		lo := at
		for at < len(entering) && entering[at].Src == src {
			at++
		}
		ent := entering[lo:at]
		p := rowAt(prev, s)
		if p == nil && len(ent) == 0 {
			continue
		}
		pd, prt := p.entries()
		slots := e.canon.at[s]

		// One merge, in dst order, of the previous entries and the entering
		// pairs. The source's next row is begun at the first entry that
		// changes: until then the previous row stands, and if none does its
		// pointer is kept.
		job := solveJob{src: src, lo: len(sc.dsts)}
		begun := false
		begin := func(i int) { // the i entries before the change are kept
			if !begun {
				begun = true
				job.dsts = append(make([]graph.NodeID, 0, len(pd)+len(ent)), pd[:i]...)
				job.routes = append(make([]*Route, 0, len(pd)+len(ent)), prt[:i]...)
			}
		}
		solve := func(d graph.NodeID) {
			sc.dsts, sc.slots = append(sc.dsts, d), append(sc.slots, int32(len(job.dsts)))
			job.dsts, job.routes = append(job.dsts, d), append(job.routes, nil)
		}
		for i, k := 0, 0; i < len(pd) || k < len(ent); {
			if i == len(pd) || k < len(ent) && ent[k].Dst <= pd[i] {
				// Entering. The pair is not in the previous plan unless that
				// plan was stale (FaultStalePlanOnRepair); its solve then
				// supersedes the entry.
				begin(i)
				if i < len(pd) && ent[k].Dst == pd[i] {
					i++
				}
				solve(ent[k].Dst)
				k++
				continue
			}
			pr, rt := rbpc.Pair{Src: src, Dst: pd[i]}, prt[i]
			switch {
			case dead[e.canon.base[slots[pr.Dst]]] == 0: // leaving: back to canonical
				begin(i)
			case rt != nil && len(newlyDown) > 0 && routeUses(rt, sc.downNew):
				stale++
				begin(i)
				solve(pr.Dst)
			case repairImproves(sc.repaired, pr, rt):
				improved++
				begin(i)
				solve(pr.Dst)
			default:
				reused++
				if begun {
					job.dsts, job.routes = append(job.dsts, pr.Dst), append(job.routes, rt)
				}
			}
			i++
		}
		if !begun {
			continue
		}
		if rows == nil {
			rows = make([]*planRow, len(e.canon.at))
			copy(rows, prev)
		}
		if job.hi = len(sc.dsts); job.hi > job.lo {
			sc.jobs = append(sc.jobs, job)
		} else {
			rows[s] = newPlanRow(job.dsts, job.routes)
		}
	}
	for _, ed := range newlyDown {
		sc.downNew[ed] = false
	}
	e.inc.stale.Add(stale)
	e.inc.improved.Add(improved)
	e.inc.pairsReused.Add(reused)
	e.inc.pairsRecomputed.Add(int64(len(sc.dsts)))
	e.inc.affectedNs.Add(time.Since(t0).Nanoseconds())

	hit = len(newlyDown) == 0 && len(sc.jobs) == 0
	if rows == nil {
		return &plan{key: key, rows: prev}, hit
	}

	if len(sc.jobs) > 0 {
		t1 := time.Now()
		sc.decs, sc.oks = resized(sc.decs, len(sc.dsts)), resized(sc.oks, len(sc.dsts))
		var cursor atomic.Int64
		var solveNs, resolveNs atomic.Int64 // the workers' busy time, by stage
		var wg sync.WaitGroup
		for w := range e.solvers[:min(len(e.solvers), len(sc.jobs))] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw := &e.solvers[w]
				var solve, resolve time.Duration
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(sc.jobs) {
						break
					}
					job := &sc.jobs[i]
					ts := time.Now()
					row := oracle.Row(job.src, sw.sp)
					if sw.tap != nil {
						sw.tap(job.src, row, oracle)
					}
					sw.pull.From(job.src, row, dead, sc.dsts[job.lo:job.hi], sc.decs[job.lo:job.hi], sc.oks[job.lo:job.hi])
					tr := time.Now()
					rows[job.src] = e.resolveRow(job, sc)
					solve, resolve = solve+tr.Sub(ts), resolve+time.Since(tr)
				}
				solveNs.Add(solve.Nanoseconds())
				resolveNs.Add(resolve.Nanoseconds())
			}()
		}
		wg.Wait()
		clear(sc.jobs) // the scratch must not pin the rows it helped build
		// The fan-out's wall, split between the stages in proportion to the
		// workers' time in each: together they cover it exactly.
		wall := time.Since(t1).Nanoseconds()
		rs := resolveNs.Load()
		if busy := solveNs.Load() + rs; busy > 0 {
			rs = int64(float64(wall) * float64(rs) / float64(busy))
		}
		e.inc.solveNs.Add(wall - rs)
		e.inc.resolveNs.Add(rs)
	}

	// A plan in which no source diverges is the nil plan, so a snapshot at
	// rest holds the canonical matrix and nothing else.
	if !slices.ContainsFunc(rows, func(r *planRow) bool { return r != nil }) {
		rows = nil
	}
	return &plan{key: key, rows: rows}, hit
}
