package analysis

import (
	"sort"
)

// LockOrder checks that the module-wide mutex-acquisition graph is
// acyclic. ScanPackage records, per function, every acquisition site, every
// direct nested acquisition (guard B taken while guard A held), and every
// module-local call made while a guard was held; this analyzer closes the
// acquisition sets over the call graph, expands held-calls into
// acquired-while-held edges, and reports every edge that participates in a
// cycle — i.e. two lock classes acquired in both orders somewhere in the
// module, the coordinator↔shard↔engine deadlock shape.
//
// Guards are lock *classes* (pkg.Type.field, pkg.Type for embedded
// mutexes, pkg.name for globals), so a cycle of length one — a class
// acquired while an instance of the same class is held — is also reported:
// two instances locked in data-dependent order is the classic AB/BA
// deadlock, and a canonical acquisition order must be made explicit.
//
// Each edge is reported once, in the package that owns the *inner*
// acquisition site.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition graph must be acyclic across the module",
	Run:  runLockOrder,
}

// lockOrderEdge is one resolved acquired-while-held relation, with the
// call chain hop (Via) when the inner acquisition happens in a callee.
type lockOrderEdge struct {
	outer, outerPos string
	inner, innerPos string
	via             string // call position for held-call edges, "" for direct
}

func runLockOrder(pass *Pass) {
	edges := lockOrderEdges(pass.Index)
	if len(edges) == 0 {
		return
	}

	adj := map[string][]lockOrderEdge{}
	for _, e := range edges {
		adj[e.outer] = append(adj[e.outer], e)
	}

	// Report each cycle-closing edge whose inner acquisition site lives in
	// this pass's files, once per ordered guard pair.
	own := map[string]bool{}
	for _, f := range pass.Files {
		own[pass.Fset.Position(f.Pos()).Filename] = true
	}
	reported := map[[2]string]bool{}
	for _, e := range edges {
		if !own[posFile(e.innerPos)] || reported[[2]string{e.outer, e.inner}] {
			continue
		}
		back, ok := lockOrderPath(adj, e.inner, e.outer)
		if !ok {
			continue
		}
		reported[[2]string{e.outer, e.inner}] = true
		pos := parsePosString(e.innerPos)
		how := ""
		if e.via != "" {
			how = " (via call at " + e.via + ")"
		}
		pass.ReportPosf(pos,
			"lock order cycle: %s acquired here while %s is held (since %s)%s, but the reverse order %s → %s is committed at %s",
			e.inner, e.outer, e.outerPos, how, e.inner, e.outer, back.innerPos)
	}
}

// lockOrderEdges resolves the index's raw lock facts into concrete
// acquired-while-held edges: the direct ones, plus held-calls expanded
// against the callees' transitive acquisition sets.
func lockOrderEdges(idx *Index) []lockOrderEdge {
	var edges []lockOrderEdge
	for _, e := range idx.LockEdges {
		edges = append(edges, lockOrderEdge{
			outer: e.Outer, outerPos: e.OuterPos,
			inner: e.Inner, innerPos: e.InnerPos,
		})
	}

	// Close each function's may-acquire set over module-local calls.
	acq := map[string]map[string]string{} // func → guard → example site
	for fn, sites := range idx.Acquires {
		m := map[string]string{}
		for _, s := range sites {
			if _, ok := m[s.Guard]; !ok {
				m[s.Guard] = s.Pos
			}
		}
		acq[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range idx.LockCalls {
			for _, c := range callees {
				for g, pos := range acq[c] {
					m := acq[fn]
					if m == nil {
						m = map[string]string{}
						acq[fn] = m
					}
					if _, ok := m[g]; !ok {
						m[g] = pos
						changed = true
					}
				}
			}
		}
	}

	for _, hc := range idx.HeldCalls {
		guards := acq[hc.Callee]
		names := make([]string, 0, len(guards))
		for g := range guards {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			edges = append(edges, lockOrderEdge{
				outer: hc.Guard, outerPos: hc.GuardPos,
				inner: g, innerPos: guards[g],
				via: hc.CallPos,
			})
		}
	}

	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.outer != b.outer {
			return a.outer < b.outer
		}
		if a.inner != b.inner {
			return a.inner < b.inner
		}
		return a.innerPos < b.innerPos
	})
	return edges
}

// lockOrderPath reports whether guard `to` is reachable from guard `from`
// in the edge graph, returning the final edge of one such path (the
// counter-witness: where `to` is acquired while something on the path from
// `from` is held).
func lockOrderPath(adj map[string][]lockOrderEdge, from, to string) (lockOrderEdge, bool) {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[g] {
			if e.inner == to {
				return e, true
			}
			if !seen[e.inner] {
				seen[e.inner] = true
				stack = append(stack, e.inner)
			}
		}
	}
	return lockOrderEdge{}, false
}

// posFile extracts the filename from a "file:line:col" position string.
func posFile(pos string) string {
	p := parsePosString(pos)
	return p.Filename
}
