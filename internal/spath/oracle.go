package spath

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rbpc/internal/graph"
)

// oracleEntry is one cached tree plus its CLOCK reference bit. The bit is
// set on a hit (outside the oracle lock) and cleared by the sweeping hand,
// giving recently used trees a second chance before eviction. lay is the
// tree's preorder layout, built the first time a derived oracle repairs
// the tree (see Derive); trees nobody derives from never pay for it.
type oracleEntry struct {
	tree *Tree
	ref  atomic.Bool
	lay  atomic.Pointer[treeLayout]
}

// touch sets the reference bit. Hot trees are hit from every build worker
// (a destination's tree bounds the search of every source routing to it),
// so the bit is read first and written only when clear: a set bit stays a
// shared cache line instead of bouncing between cores on every hit.
//
//rbpc:hotpath
func (e *oracleEntry) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// Oracle memoizes shortest-path trees per source over a fixed view. It is
// the component that keeps the 40k-node Internet topology tractable: the
// paper's methodology samples source-destination pairs, so only the sampled
// sources' trees are ever computed, instead of a quadratic all-pairs matrix.
//
// When capped (SetCap), eviction is CLOCK second-chance over insertion
// order: the hand sweeps the ring, clears reference bits of recently hit
// trees, and evicts the first tree not hit since the last sweep. This keeps
// hot trees (sampled sources queried repeatedly) resident, unlike the
// previous arbitrary-map-key eviction, and is deterministic given the same
// access sequence.
//
// Only Tree memoizes: Row reads a root's row without adding a tree, so an
// oracle holds exactly the roots its callers asked for by Tree.
//
// Oracle is safe for concurrent use.
type Oracle struct {
	view graph.View

	// derive, when non-nil, makes this a derived oracle: a miss repairs the
	// pristine oracle's tree of the same root instead of searching the view.
	derive *derivation

	mu    sync.RWMutex
	trees map[graph.NodeID]*oracleEntry //rbpc:guardedby mu
	// ring holds the cached sources in insertion order (the clock ring);
	// hand is the next ring position the clock hand examines.
	ring []graph.NodeID //rbpc:guardedby mu
	hand int            //rbpc:guardedby mu
	cap  int            //rbpc:guardedby mu
}

// NewOracle returns an Oracle over v. The view must not change afterwards
// (build a new Oracle per failure view).
func NewOracle(v graph.View) *Oracle {
	return &Oracle{view: v, trees: make(map[graph.NodeID]*oracleEntry)}
}

// View returns the view the oracle answers for.
func (o *Oracle) View() graph.View { return o.view }

// Tree returns the (memoized) shortest-path tree rooted at s.
func (o *Oracle) Tree(s graph.NodeID) *Tree { return o.entry(s).tree }

// Row returns the distance row from s in the oracle's view, indexed by
// node ID with Unreachable at unreached nodes, bit-identical to
// Tree(s).Dists() — without memoizing a tree. If the oracle holds s's tree,
// the row is that tree's. Otherwise, on a derived oracle, a root whose
// pristine tree uses no failed edge gets the pristine tree's row, and any
// other root's row is repaired in sv's scratch (Derive); on a plain oracle
// the row is a search of the view in sv's scratch. A row in the scratch is
// valid until sv's next run, and sv's own accessors do not describe it.
// The row must not be modified. Row allocates nothing once sv is sized and
// the pristine tree is resident, and leaves CachedTrees as it was: it is
// for a caller that reads a root's row once, like the engine's solve
// fan-out, one solver per worker.
//
//rbpc:hotpath
func (o *Oracle) Row(s graph.NodeID, sv *Solver) []float64 {
	o.mu.RLock()
	e := o.trees[s]
	o.mu.RUnlock()
	if e != nil {
		e.touch()
		return e.tree.dist
	}
	if o.derive != nil {
		return o.derive.row(s, sv)
	}
	sv.Solve(o.view, s)
	return sv.Row()
}

// entry returns the cache entry of the tree rooted at s, building the tree
// on a miss: by repair of the pristine tree on a derived oracle, by a
// search of the view otherwise.
func (o *Oracle) entry(s graph.NodeID) *oracleEntry {
	o.mu.RLock()
	e := o.trees[s]
	o.mu.RUnlock()
	if e != nil {
		e.touch()
		return e
	}
	var t *Tree
	if o.derive != nil {
		t = o.derive.tree(s)
	} else {
		t = Compute(o.view, s)
	}
	o.mu.Lock()
	// Another goroutine may have raced us; keep the first stored tree so
	// callers always observe one consistent tree per source.
	if prev, ok := o.trees[s]; ok {
		o.mu.Unlock()
		prev.touch()
		return prev
	}
	if o.cap > 0 {
		for len(o.trees) >= o.cap {
			o.evictOneLocked()
		}
	}
	e = &oracleEntry{tree: t}
	o.trees[s] = e
	o.ring = append(o.ring, s)
	o.mu.Unlock()
	return e
}

// evictOneLocked advances the clock hand until it finds a tree whose
// reference bit is clear, clearing bits as it passes, and evicts it. Must
// be called with o.mu held and len(o.trees) > 0.
//
//rbpc:locked
func (o *Oracle) evictOneLocked() {
	for {
		if o.hand >= len(o.ring) {
			o.hand = 0
		}
		s := o.ring[o.hand]
		e := o.trees[s]
		if e.ref.CompareAndSwap(true, false) {
			o.hand++ // second chance: recently hit, spare it this sweep
			continue
		}
		delete(o.trees, s)
		o.ring = append(o.ring[:o.hand], o.ring[o.hand+1:]...)
		return
	}
}

// SetCap bounds the number of memoized trees (0 = unbounded). Shrinking
// below the current population immediately evicts down to the new cap via
// the clock sweep, so the cache never exceeds the cap once SetCap returns.
func (o *Oracle) SetCap(n int) {
	o.mu.Lock()
	o.cap = n
	if n > 0 {
		for len(o.trees) > n {
			o.evictOneLocked()
		}
	}
	o.mu.Unlock()
}

// Precompute warms the cache with the trees of the given sources in
// parallel, using the given number of workers (<= 0 means GOMAXPROCS).
// Duplicate and already-cached sources are skipped; when the oracle is
// capped, only the first cap sources are warmed (warming more would evict
// the earlier ones before they are ever read). It returns the number of
// trees computed.
//
// Evaluation drivers call this before fanning scenario workers out, so the
// workers hit a warm cache instead of racing to compute the same trees.
func (o *Oracle) Precompute(sources []graph.NodeID, workers int) int {
	o.mu.RLock()
	capLeft := -1 // unbounded
	if o.cap > 0 {
		capLeft = o.cap - len(o.trees)
	}
	todo := make([]graph.NodeID, 0, len(sources))
	seen := make(map[graph.NodeID]bool, len(sources))
	for _, s := range sources {
		if seen[s] || o.trees[s] != nil {
			continue
		}
		if capLeft == 0 {
			break
		}
		if capLeft > 0 {
			capLeft--
		}
		seen[s] = true
		todo = append(todo, s)
	}
	o.mu.RUnlock()
	if len(todo) == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers <= 1 {
		for _, s := range todo {
			o.Tree(s)
		}
		return len(todo)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				o.Tree(todo[i])
			}
		}()
	}
	wg.Wait()
	return len(todo)
}

// Dist returns the shortest-path distance from s to d, or Unreachable.
func (o *Oracle) Dist(s, d graph.NodeID) float64 {
	return o.Tree(s).Dist(d)
}

// Path returns the canonical shortest path from s to d.
func (o *Oracle) Path(s, d graph.NodeID) (graph.Path, bool) {
	return o.Tree(s).PathTo(d)
}

// IsShortest reports whether p is a shortest path between its endpoints
// under the oracle's view, i.e. whether its cost equals the shortest-path
// distance. Costs are compared exactly; views with padded weights remain
// consistent because both sides are computed from the same perturbed
// weights.
func (o *Oracle) IsShortest(p graph.Path) bool {
	return p.CostIn(o.view) == o.Dist(p.Src(), p.Dst())
}

// Roots returns the sources whose trees are currently memoized, in the
// order they entered the cache: what a build rooted, without rooting
// anything to find out.
func (o *Oracle) Roots() []graph.NodeID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return slices.Clone(o.ring)
}

// CachedTrees reports how many source trees are currently memoized.
func (o *Oracle) CachedTrees() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.trees)
}
