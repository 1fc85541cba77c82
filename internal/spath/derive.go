package spath

import (
	"rbpc/internal/graph"
)

// Tree derivation: the post-failure tree of a root as a repair of its
// pristine tree instead of a fresh search.
//
// Failing edges only deletes candidates, and the tie-break (hops, parent
// ID, edge ID) of a node looks only at that node's neighbours. So a node
// whose pristine tree path avoids every failed edge keeps its label
// verbatim: the path still exists, so its distance and hop count are still
// attained and no surviving candidate got better; its winning parent
// candidate is itself such a node, hence unchanged, and every other
// candidate is unchanged, gone, or worse. The nodes that can change — the
// orphans — are exactly the pristine subtrees hanging below failed tree
// edges. They are reset, offered the labels of their surviving kept
// neighbours, and re-solved among themselves with the relax rule of
// dijkstraKernel; with positive weights every orphan is settled only after
// all its tight parents offered their final labels, the same fixed point a
// search of the failed view reaches. The result is bit-identical to
// Compute on all four arrays (BFS and Dijkstra agree on that fixed point
// for unit weights, where du+1 and du+W are the same float).

// treeLayout is the preorder layout of a tree: the subtree of v is the
// contiguous run order[pre[v] : pre[v]+size[v]], so the orphans of a failed
// tree edge are named by one interval instead of a walk.
type treeLayout struct {
	order []graph.NodeID // reached nodes in preorder
	pre   []int32        // position in order; -1 at unreached nodes
	size  []int32        // subtree size, counting the node itself
}

// buildLayout lays t out in preorder without recursion or child lists:
// nodes are bucketed by depth, sizes accumulate deepest-first, and each
// node then hands its children consecutive sub-intervals of its own.
func buildLayout(t *Tree) *treeLayout {
	n := len(t.dist)
	buf := make([]int32, 3*n)
	lay := &treeLayout{order: buf[:0:n], pre: buf[n : 2*n : 2*n], size: buf[2*n:]}

	// byDepth: reached nodes sorted by hop count (counting sort; a tree
	// path has fewer than n hops). start[h] is depth h's next free slot.
	start := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if t.dist[v] != Unreachable {
			start[t.hops[v]+1]++
		}
	}
	for h := 1; h <= n; h++ {
		start[h] += start[h-1]
	}
	reached := int(start[n])
	byDepth := make([]graph.NodeID, reached)
	for v := 0; v < n; v++ {
		if t.dist[v] != Unreachable {
			byDepth[start[t.hops[v]]] = graph.NodeID(v)
			start[t.hops[v]]++
		}
	}

	for i := reached - 1; i >= 0; i-- {
		v := byDepth[i]
		lay.size[v]++
		if p := t.parent[v]; p >= 0 {
			lay.size[p] += lay.size[v]
		}
	}
	for v := range lay.pre {
		lay.pre[v] = -1
	}
	// next[v] is the next free preorder position inside v's interval.
	next := make([]int32, n)
	for _, v := range byDepth {
		if p := t.parent[v]; p >= 0 {
			lay.pre[v] = next[p]
			next[p] += lay.size[v]
		} else {
			lay.pre[v] = 0
		}
		next[v] = lay.pre[v] + 1
	}
	lay.order = lay.order[:reached]
	for _, v := range byDepth {
		lay.order[lay.pre[v]] = v
	}
	return lay
}

// layout returns the entry's preorder layout, building it on first use.
// Racing builders compute the same layout; the first one published wins.
func (e *oracleEntry) layout() *treeLayout {
	if l := e.lay.Load(); l != nil {
		return l
	}
	e.lay.CompareAndSwap(nil, buildLayout(e.tree))
	return e.lay.Load()
}

// derivation is what a derived oracle repairs trees with: the pristine
// oracle it reads from, and the failure view lowered to its kernel and its
// removed edges with their endpoints.
type derivation struct {
	pristine *Oracle
	kern     graph.Kernel
	failed   []graph.Edge
}

// Derive returns an Oracle over v whose trees are repairs of o's trees
// rather than searches of v, when that is sound: o answers for a pristine
// graph (a *graph.Graph, or a failure view of it with nothing removed), is
// not itself derived, and v is a *graph.FailureView over the same
// undirected graph that removes edges only. A root whose pristine tree
// uses no failed edge gets the pristine *Tree itself; any other root costs
// O(k + |orphans|·deg) instead of a search of the whole view. Trees are
// bit-identical to Compute(v, root) and depend on (root, failed set) only.
// Tree memoizes what it derives; Row derives a root's distance row into
// the caller's solver and memoizes nothing, so the derived oracle holds
// only the roots asked for by tree.
//
// Every other view — removed nodes, a PaddedView, a foreign View type, a
// directed graph — is not modelled by the repair, and Derive returns a
// plain NewOracle(v). The choice is made from the view's type alone.
//
// o must outlive the returned oracle's misses; capping o (SetCap) is fine:
// an evicted pristine tree is recomputed on the next derivation that
// wants it.
func (o *Oracle) Derive(v graph.View) *Oracle {
	d := NewOracle(v)
	fv, ok := v.(*graph.FailureView)
	if !ok || o.derive != nil || len(fv.RemovedNodes()) > 0 || fv.Base().Directed() || !pristineOver(o.view, fv.Base()) {
		return d
	}
	dv := &derivation{pristine: o, failed: make([]graph.Edge, len(fv.RemovedEdges()))}
	dv.kern, _ = graph.CompileView(fv)
	for i, id := range fv.RemovedEdges() {
		dv.failed[i] = fv.Edge(id)
	}
	d.derive = dv
	return d
}

// pristineOver reports whether view is graph g with nothing removed.
func pristineOver(view graph.View, g *graph.Graph) bool {
	switch p := view.(type) {
	case *graph.Graph:
		return p == g
	case *graph.FailureView:
		return p.Base() == g && len(p.RemovedEdges()) == 0 && len(p.RemovedNodes()) == 0
	}
	return false
}

// orphanRun is a run [lo, hi) of a pristine tree's preorder: one orphaned
// subtree.
type orphanRun struct{ lo, hi int32 }

// orphans appends to runs[:0] the orphaned runs of pe's tree under d's
// failed links — the subtree below each failed tree edge, sorted by start,
// with runs nested in an earlier one dropped — and returns them with the
// tree's layout. No runs: the pristine tree is the failed view's too.
func (d *derivation) orphans(pe *oracleEntry, runs []orphanRun) (*treeLayout, []orphanRun) {
	p := pe.tree
	runs = runs[:0]
	var lay *treeLayout
	for _, f := range d.failed {
		c := f.U
		if p.parentE[c] != f.ID {
			if c = f.V; p.parentE[c] != f.ID {
				continue
			}
		}
		if lay == nil {
			lay = pe.layout()
		}
		r := orphanRun{lay.pre[c], lay.pre[c] + lay.size[c]}
		i := len(runs)
		runs = append(runs, r)
		for ; i > 0 && runs[i-1].lo > r.lo; i-- {
			runs[i] = runs[i-1]
		}
		runs[i] = r
	}
	// Subtrees nest or are disjoint, so a run that begins inside the
	// previous kept one is covered by it.
	kept := runs[:min(len(runs), 1)]
	for _, r := range runs[len(kept):] {
		if r.lo >= kept[len(kept)-1].hi {
			kept = append(kept, r)
		}
	}
	return lay, kept
}

// tree returns the failed view's tree rooted at s as a repair of the
// pristine one: the pristine *Tree itself when it has no orphans, else a
// new tree (one allocation for the struct, one for its labels).
//
//rbpc:ctor
func (d *derivation) tree(s graph.NodeID) *Tree {
	pe := d.pristine.entry(s)
	p := pe.tree
	var buf [8]orphanRun
	lay, runs := d.orphans(pe, buf[:0])
	if len(runs) == 0 {
		return p
	}
	n := len(p.dist)
	t := allocTree(n, s)
	copy(t.dist, p.dist)
	copy(t.hops, p.hops)
	copy(t.parent, p.parent)
	copy(t.parentE, p.parentE)
	sv := AcquireSolver(n)
	sv.begin(n, s)
	sv.repairOrphans(&d.kern, t.dist, t.hops, t.parent, t.parentE, lay.order, runs)
	ReleaseSolver(sv)
	return t
}

// row returns the failed view's distance row from s: the pristine tree's
// own row when it has no orphans, else a repair of a copy of the pristine
// labels in sv's scratch, valid until sv's next run. No tree is built and
// nothing is memoized.
//
//rbpc:hotpath
func (d *derivation) row(s graph.NodeID, sv *Solver) []float64 {
	pe := d.pristine.entry(s)
	p := pe.tree
	var buf [8]orphanRun
	lay, runs := d.orphans(pe, buf[:0])
	if len(runs) == 0 {
		return p.dist
	}
	n := len(p.dist)
	sv.begin(n, s)
	// The repair reads a kept node's distance and hop count only, and
	// resets an orphan's labels before it reads them: the parents of the
	// kept nodes, which a row does not show, need no copy.
	dist, hops := sv.dist[:n], sv.hops[:n]
	copy(dist, p.dist)
	copy(hops, p.hops)
	sv.repairOrphans(&d.kern, dist, hops, sv.parent[:n], sv.parentE[:n], lay.order, runs)
	return dist
}

// repairOrphans re-solves the orphaned runs of a tree's four label arrays
// (a copy of the pristine tree's labels: a new tree's, or the solver's own
// scratch) against the failed kernel k, which must remove no node, on a
// solver whose run has just begun (fresh generation, empty heap). The
// relax and tie-break rules are dijkstraKernel's, so the labels land on the
// same fixed point.
//
//rbpc:hotpath
func (s *Solver) repairOrphans(k *graph.Kernel, dist []float64, hops []int32, parent []graph.NodeID, parentE []graph.EdgeID, order []graph.NodeID, runs []orphanRun) {
	gen, cur, h := s.gen, s.cur, s.heap

	// Reset every orphan before seeding any, and stamp it: from here on
	// gen[v] == cur means "orphan", and an unstamped neighbour's label is
	// final.
	for _, r := range runs {
		for _, x := range order[r.lo:r.hi] {
			gen[x] = cur
			dist[x] = Unreachable
			hops[x] = 0
			parent[x] = -1
			parentE[x] = -1
		}
	}
	// Seed: each orphan takes the best offer of its kept neighbours over
	// surviving edges (the graph is undirected, so x's arcs list them with
	// the offering edge's weight).
	for _, r := range runs {
		for _, x := range order[r.lo:r.hi] {
			for _, a := range k.CSR.Arcs(x) {
				y := a.To
				if gen[y] == cur || k.EdgeRemoved(a.Edge) {
					continue
				}
				nd := dist[y] + a.W
				if nd < dist[x] || (nd == dist[x] && betterParent(hops[y]+1, y, a.Edge, hops[x], parent[x], parentE[x])) {
					dist[x] = nd
					hops[x] = hops[y] + 1
					parent[x] = y
					parentE[x] = a.Edge
				}
			}
			if dist[x] != Unreachable {
				h.Push(int(x), dist[x])
			}
		}
	}
	// Settle the orphans among themselves.
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if du > dist[u] {
			continue
		}
		hu := hops[u]
		for _, a := range k.CSR.Arcs(u) {
			to := a.To
			if gen[to] != cur || k.EdgeRemoved(a.Edge) {
				continue
			}
			nd := du + a.W
			switch {
			case nd < dist[to]:
				dist[to] = nd
				hops[to] = hu + 1
				parent[to] = u
				parentE[to] = a.Edge
				h.PushOrDecrease(int(to), nd)
			case nd == dist[to]:
				if betterParent(hu+1, u, a.Edge, hops[to], parent[to], parentE[to]) {
					hops[to] = hu + 1
					parent[to] = u
					parentE[to] = a.Edge
				}
			}
		}
	}
}
