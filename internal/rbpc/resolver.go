package rbpc

import (
	"fmt"

	"rbpc/internal/core"
	"rbpc/internal/mpls"
)

// Resolver maps decomposition components to provisioned LSPs, signaling
// missing components on demand (paper, Section 4.1: multiple failures may
// force an online computation). It is the shared mechanism behind both
// the System's online restoration path and the engine's epoch builds: the
// two differ only in which Network the on-demand LSPs are signaled into
// and which registry they are recorded in.
//
// A Resolver is not safe for concurrent use; it mutates both Net and
// LSPs.
type Resolver struct {
	// Net receives on-demand LSP establishment.
	Net *mpls.Network
	// Provisioned, when non-nil, is a registry of pre-provisioned LSPs the
	// resolver reads first and never writes — so any number of resolvers
	// (the shard engines of one process, each with its own Net) share one
	// instead of each holding a clone of it.
	Provisioned map[string]*mpls.LSP
	// LSPs is the resolver's own registry, keyed by path key. On-demand
	// LSPs are added to it.
	LSPs map[string]*mpls.LSP
	// OnDemand counts LSPs this resolver had to signal because the
	// needed component was not pre-provisioned.
	OnDemand int
}

// Resolve maps every component of dec to an LSP, establishing missing
// ones on demand.
func (r *Resolver) Resolve(dec core.Decomposition) ([]*mpls.LSP, error) {
	lsps := make([]*mpls.LSP, 0, len(dec.Components))
	for _, c := range dec.Components {
		key := c.Path.Key()
		lsp, ok := r.Provisioned[key]
		if !ok {
			lsp, ok = r.LSPs[key]
		}
		if !ok {
			var err error
			lsp, err = r.Net.EstablishLSP(c.Path)
			if err != nil {
				return nil, fmt.Errorf("rbpc: on-demand LSP %v: %w", c.Path, err)
			}
			r.LSPs[key] = lsp
			r.OnDemand++
		}
		lsps = append(lsps, lsp)
	}
	return lsps, nil
}
