// Package core implements the paper's primary contribution: representing a
// post-failure shortest path as a concatenation of pre-provisioned base
// paths (plus, in the weighted case, at most k bare edges), and planning
// restorations that realize the concatenation.
//
// Two decomposition strategies are provided, matching Section 4.1 of the
// paper:
//
//   - Greedy largest-prefix decomposition (with binary search on prefix
//     length), valid whenever the base set is subpath-closed — in
//     particular for the all-shortest-paths set and the padded-unique set.
//     Greedy minimizes the total number of components.
//   - Sparse decomposition via Dijkstra over the "base-path graph" whose
//     edges are the surviving base paths plus the surviving raw edges,
//     valid for any base set (Theorems 2/3).
package core

import (
	"fmt"

	"rbpc/internal/graph"
	"rbpc/internal/paths"
)

// Kind distinguishes the two component types of Theorem 2.
type Kind int

const (
	// KindBasePath is a component drawn from the base set.
	KindBasePath Kind = iota + 1
	// KindEdge is a bare-edge component (one of the "k edges" of the
	// weighted-case theorem); the edge is not a base path.
	KindEdge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBasePath:
		return "base-path"
	case KindEdge:
		return "edge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Component is one piece of a concatenation.
type Component struct {
	Kind Kind
	Path graph.Path
	// Base names a KindBasePath component drawn from a materialized base
	// set by position: 1 + its paths.Explicit index, which the provisioned
	// LSP tables are laid out by. Zero is "none" — a bare edge, an implicit
	// base set, a literal that forgets the field — never base path 0.
	Base int32
}

// Decomposition is a restoration path expressed as a concatenation of
// components.
type Decomposition struct {
	Components []Component
}

// NumPaths returns the number of base-path components.
func (d Decomposition) NumPaths() int {
	n := 0
	for _, c := range d.Components {
		if c.Kind == KindBasePath {
			n++
		}
	}
	return n
}

// NumEdges returns the number of bare-edge components.
func (d Decomposition) NumEdges() int { return len(d.Components) - d.NumPaths() }

// Len returns the total number of components — the paper's "PC length".
func (d Decomposition) Len() int { return len(d.Components) }

// Concat reassembles the full path from the components. It panics on an
// empty decomposition.
func (d Decomposition) Concat() graph.Path {
	if len(d.Components) == 0 {
		panic("core: Concat of empty decomposition")
	}
	p := d.Components[0].Path
	for _, c := range d.Components[1:] {
		p = p.Concat(c.Path)
	}
	return p
}

// Cost returns the total cost of the decomposition under view v.
func (d Decomposition) Cost(v graph.View) float64 {
	var c float64
	for _, comp := range d.Components {
		c += comp.Path.CostIn(v)
	}
	return c
}

// String renders the decomposition compactly, e.g.
// "[base-path 0-(e1)-3 | edge 3-(e9)-4]".
func (d Decomposition) String() string {
	s := "["
	for i, c := range d.Components {
		if i > 0 {
			s += " | "
		}
		s += c.Kind.String() + " " + c.Path.String()
	}
	return s + "]"
}

// DecomposeGreedy splits target into the minimum number of components,
// each of which is either a base path or a bare edge, scanning left to
// right and always taking the longest base-path prefix (located by binary
// search, as suggested in the paper). If at some node not even the next
// single edge is a base path, that edge becomes a KindEdge component.
//
// Correctness requires the base set to be subpath-closed (true for
// paths.AllShortest and paths.UniqueShortest): then "prefix of length j is
// a base path" is monotone in j, the binary search is sound, and the
// classic exchange argument makes the greedy optimal in total component
// count.
//
// A trivial target decomposes into zero components.
func DecomposeGreedy(base paths.Base, target graph.Path) Decomposition {
	var d Decomposition
	h := target.Hops()
	at := 0
	for at < h {
		// Largest j in (at, h] such that target[at..j] is a base path.
		lo, hi := at+1, h // candidate range for j
		best := -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if base.Contains(target.SubPath(at, mid)) {
				best = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if best == -1 {
			// Not even one edge: emit a bare-edge component.
			d.Components = append(d.Components, Component{
				Kind: KindEdge,
				Path: target.SubPath(at, at+1),
			})
			at++
			continue
		}
		d.Components = append(d.Components, Component{
			Kind: KindBasePath,
			Path: target.SubPath(at, best),
		})
		at = best
	}
	return d
}

// MinPathComponents computes, by dynamic programming over the target path,
// the minimum number of base-path components in any decomposition of
// target that uses at most maxEdgeComps bare-edge components. It returns
// (-1) if no such decomposition exists (possible only if some edge of the
// target is neither a base path nor allowed as an edge component).
//
// This is the exact existence check behind the theorem verifiers: Theorem 2
// asserts MinPathComponents(base, p, k) <= k+1 for every new shortest path
// p after k edge failures.
//
// Unlike DecomposeGreedy it does not require subpath closure.
func MinPathComponents(base paths.Base, target graph.Path, maxEdgeComps int) int {
	h := target.Hops()
	if h == 0 {
		return 0
	}
	const inf = int(^uint(0) >> 2)
	// dp[i][e] = min base-path components covering target[0..i] using
	// exactly <= e edge components.
	dp := make([][]int, h+1)
	for i := range dp {
		dp[i] = make([]int, maxEdgeComps+1)
		for e := range dp[i] {
			dp[i][e] = inf
		}
	}
	for e := 0; e <= maxEdgeComps; e++ {
		dp[0][e] = 0
	}
	for i := 0; i < h; i++ {
		for e := 0; e <= maxEdgeComps; e++ {
			if dp[i][e] == inf {
				continue
			}
			// Extend with an edge component.
			if e+1 <= maxEdgeComps && dp[i][e] < dp[i+1][e+1] {
				dp[i+1][e+1] = dp[i][e]
			}
			// Extend with a base-path component to any j > i.
			for j := i + 1; j <= h; j++ {
				if base.Contains(target.SubPath(i, j)) && dp[i][e]+1 < dp[j][e] {
					dp[j][e] = dp[i][e] + 1
				}
			}
		}
	}
	best := inf
	for e := 0; e <= maxEdgeComps; e++ {
		if dp[h][e] < best {
			best = dp[h][e]
		}
	}
	if best == inf {
		return -1
	}
	return best
}

// ValidateDecomposition checks that d reassembles exactly into target and
// that every component is of the declared kind: base-path components are in
// base; edge components are single hops.
func ValidateDecomposition(base paths.Base, target graph.Path, d Decomposition) error {
	if target.Hops() == 0 {
		if len(d.Components) != 0 {
			return fmt.Errorf("core: trivial target with %d components", len(d.Components))
		}
		return nil
	}
	if len(d.Components) == 0 {
		return fmt.Errorf("core: empty decomposition for %d-hop target", target.Hops())
	}
	for i, c := range d.Components {
		switch c.Kind {
		case KindBasePath:
			if !base.Contains(c.Path) {
				return fmt.Errorf("core: component %d (%v) not in base set", i, c.Path)
			}
		case KindEdge:
			if c.Path.Hops() != 1 {
				return fmt.Errorf("core: edge component %d has %d hops", i, c.Path.Hops())
			}
		default:
			return fmt.Errorf("core: component %d has invalid kind %v", i, c.Kind)
		}
	}
	if got := d.Concat(); !got.Equal(target) {
		return fmt.Errorf("core: concatenation %v != target %v", got, target)
	}
	return nil
}
