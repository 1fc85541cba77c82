package mpls

import "slices"

// Clone returns a copy-on-write copy of the network: both networks keep
// working views of the forwarding state at the moment of the call, and
// table writes on either side copy only the written router's table (and
// only the first time it is written after the clone). Cloning is O(routers
// + links), independent of the number of installed ILM/FEC rows: a lineage
// that rewrites k routers' tables pays for those k tables, not for the
// whole network. The online engine clones once, in engine.New; its epochs
// are overlays over that one clone (ILMOverlay), not clones of their own.
//
// Semantics:
//
//   - ILM and FEC tables are shared until written; the first write to
//     a router's table (on either lineage) copies that table.
//   - The LSP registry is likewise shared until written. *LSP values
//     themselves are immutable after establishment and stay shared.
//   - Link up/down state, label allocators, and statistics are copied
//     eagerly (they are O(routers + links)).
//
// Concurrency: Clone must not run concurrently with writes to n, but it
// may run concurrently with reads (table lookups, packet forwarding) —
// the shared tables are never mutated in place once marked shared, and all
// counters are atomic. After the clone, the two networks are independent:
// writes to one are never visible to the other.
func (n *Network) Clone() *Network {
	c := &Network{
		g:          n.g,
		routers:    make([]*Router, len(n.routers)),
		lsps:       n.lsps,
		numLSPs:    n.numLSPs,
		sharedLSPs: true,
		nextLSP:    n.nextLSP,
		edgeUp:     slices.Clone(n.edgeUp),
	}
	n.sharedLSPs = true
	c.stats.copyFrom(&n.stats)
	for i, r := range n.routers {
		r.sharedILM, r.sharedFEC = true, true
		c.routers[i] = &Router{
			ID:        r.ID,
			ilm:       r.ilm,
			ilmCount:  r.ilmCount,
			fec:       r.fec,
			fecCount:  r.fecCount,
			sharedILM: true,
			sharedFEC: true,
			nextLabel: r.nextLabel,
			// The free list is deep-copied: sharing its backing array
			// would let one lineage's append clobber a label the other
			// still considers free. It is almost always empty (teardowns
			// are rare), so this costs nothing in practice.
			freeList: slices.Clone(r.freeList),
		}
	}
	return c
}
