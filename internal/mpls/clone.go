package mpls

import (
	"maps"
	"slices"
)

// Clone returns a copy of the network: both networks keep working views of
// the forwarding state at the moment of the call, and writes to one are
// never visible to the other. Every router's ILM and FEC tables, the LSP
// registry, link up/down state, label allocators and statistics are copied.
// A table is a slice of pointer-free slots naming LSPs, so it copies in one
// memmove; the *LSP records the slots name, and the rows a side table holds
// whole, are immutable once installed and stay shared. No serving path
// clones a network: an epoch is an overlay over the provision's one network
// (ILMOverlay).
//
// Clone must not run concurrently with writes to n, but it may run
// concurrently with reads (table lookups, packet forwarding); all counters
// are atomic.
func (n *Network) Clone() *Network {
	c := &Network{
		g:       n.g,
		routers: make([]*Router, len(n.routers)),
		lsps:    slices.Clone(n.lsps),
		numLSPs: n.numLSPs,
		nextLSP: n.nextLSP,
		edgeUp:  slices.Clone(n.edgeUp),
	}
	c.stats.copyFrom(&n.stats)
	for i, r := range n.routers {
		c.routers[i] = &Router{
			ID:        r.ID,
			net:       c,
			ilm:       slices.Clone(r.ilm),
			ilmSide:   maps.Clone(r.ilmSide),
			ilmCount:  r.ilmCount,
			fec:       slices.Clone(r.fec),
			fecSide:   maps.Clone(r.fecSide),
			fecCount:  r.fecCount,
			nextLabel: r.nextLabel,
			freeList:  slices.Clone(r.freeList),
		}
	}
	return c
}
