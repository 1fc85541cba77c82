package engine

import (
	"slices"
	"strconv"
	"sync"

	"rbpc/internal/core"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
)

// plan is one failed-set's restoration plan in the layout it is served
// from: one dst-sorted planRow per source with an affected pair (canonical
// primary crosses a failed link), nil for every other source, and a nil
// slice for the pristine plan. A source plan's entry is the route replacing
// the pair's primary (nil = unroutable under this failed-set) and the slice
// is a snapshot's overlay as it stands; a local plan's entry is the answer
// the patched data plane delivers (nil = locally unrestorable, served as
// unroutable even if a source-router concatenation exists — the paper's
// trade-off between restoration speed and coverage). Pairs absent from the
// plan ride their canonical primaries untouched.
//
// Keying plans by failed-set makes arbitrary churn transitions correct by
// construction: moving from failed-set A to failed-set S publishes plan(S),
// whatever A was. Plans are immutable once built, share the rows of sources
// a transition did not touch, and are safe to cache — a route's stack names
// LSPs of the provision, which every epoch's network holds.
//
//rbpc:immutable
type plan struct {
	key  string // the failed-set's plan-cache key; a local plan is never cached and has none
	rows []*planRow
}

// emptyPlan is plan("") — the pristine network needs no overrides, under
// either kind of plan. Having it pre-cached makes "repair everything"
// transitions free.
var emptyPlan = &plan{}

// failedKey canonicalizes a sorted failed-set into a cache key.
func failedKey(failed []graph.EdgeID) string {
	if len(failed) == 0 {
		return ""
	}
	b := make([]byte, 0, 4*len(failed))
	for i, e := range failed {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// computePlan builds plan(failed) from scratch — the FullRebuild reference,
// independent of everything the incremental writer leans on (the base-path
// Dijkstra on fresh solvers where the writer pulls; no liveness counts, no
// distance rows, no previous rows): the affected pairs off the base set's
// link index through the primary mask, one batched sparse decomposition per
// affected source (parallel, pure), then resolution of components into LSPs
// in (src, dst) order.
func (e *Engine) computePlan(failed []graph.EdgeID) *plan {
	var affected []graph.NodePair
	for _, ed := range failed {
		affected = append(affected, rbpc.AffectedPairs(e.base, e.prim, ed)...)
	}
	rbpc.SortPairs(affected)
	affected = slices.Compact(affected)
	key := failedKey(failed)
	if len(affected) == 0 {
		return &plan{key: key}
	}
	fv := graph.FailEdges(e.g, failed...)

	// Each source's run of the sorted pairs is its destinations.
	var srcs []graph.NodeID
	var bySrc [][]graph.NodeID
	for _, pr := range affected {
		if len(srcs) == 0 || srcs[len(srcs)-1] != pr.Src {
			srcs, bySrc = append(srcs, pr.Src), append(bySrc, nil)
		}
		bySrc[len(bySrc)-1] = append(bySrc[len(bySrc)-1], pr.Dst)
	}

	// Phase 1 — decomposition fan-out. Each source's affected destinations
	// are covered by one multi-destination Dijkstra on the base-path graph.
	type srcDecs struct {
		decs []core.Decomposition
		oks  []bool
	}
	out := make([]srcDecs, len(srcs))
	workers := min(len(e.solvers), len(srcs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One solver per worker: the dead-path mask and Dijkstra
			// scratch are computed once and reused across this worker's
			// share of the affected sources.
			solver := core.NewSparseSolver(e.base, fv)
			for i := range next {
				s := srcs[i]
				decs, oks := solver.From(s, bySrc[i])
				out[i] = srcDecs{decs, oks}
			}
		}()
	}
	for i := range srcs {
		next <- i
	}
	close(next)
	wg.Wait()

	// Phase 2 — resolution into LSPs, one row per source.
	rows := make([]*planRow, len(e.canon.at))
	for i, s := range srcs {
		routes := make([]*Route, len(bySrc[i]))
		for j, ok := range out[i].oks {
			if ok {
				routes[j] = ResolveRoute(e.base, e.lspAt, out[i].decs[j])
			}
		}
		rows[s] = newPlanRow(bySrc[i], routes)
	}
	return &plan{key: key, rows: rows}
}

// planCache is the bounded failed-set plan cache, owned by the writer
// goroutine (no locking). Eviction is CLOCK: entries sit on a ring with a
// reference bit set on every hit; the hand sweeps past recently-used
// entries (clearing their bits) and reclaims the first un-referenced
// slot, approximating LRU without per-access list surgery. The pristine
// plan ("") lives outside the ring and is never evicted — "repair
// everything" transitions must stay free at any capacity. cap <= 0 means
// unbounded (the pre-existing default; small topologies and tests rely
// on it).
type planCache struct {
	cap     int
	entries map[string]*planEntry
	ring    []*planEntry
	hand    int
}

type planEntry struct {
	p   *plan
	ref bool
}

// newPlanCache builds the cache pre-seeded with the pristine plan.
func newPlanCache(cap int) *planCache {
	return &planCache{
		cap:     cap,
		entries: map[string]*planEntry{"": {p: emptyPlan}},
	}
}

func (c *planCache) get(key string) (*plan, bool) {
	ent, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent.ref = true
	return ent.p, true
}

func (c *planCache) put(p *plan) {
	if ent, ok := c.entries[p.key]; ok {
		ent.p = p
		ent.ref = true
		return
	}
	ent := &planEntry{p: p, ref: true}
	c.entries[p.key] = ent
	if c.cap <= 0 || len(c.ring) < c.cap {
		c.ring = append(c.ring, ent)
		return
	}
	// At capacity: sweep the hand to the first entry whose reference bit
	// is clear, evict it, and reuse its slot. Terminates within two laps —
	// the first lap clears every bit. The new entry keeps its ref bit, so
	// it survives the hand's next pass.
	for {
		victim := c.ring[c.hand]
		if victim.ref {
			victim.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, victim.p.key)
		c.ring[c.hand] = ent
		c.hand = (c.hand + 1) % len(c.ring)
		return
	}
}

// size reports resident plans, the pristine entry included.
func (c *planCache) size() int { return len(c.entries) }
