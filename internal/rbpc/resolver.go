package rbpc

import (
	"fmt"

	"rbpc/internal/core"
	"rbpc/internal/mpls"
)

// Resolver maps decomposition components to provisioned LSPs by path
// content, signaling missing components on demand (paper, Section 4.1:
// multiple failures may force an online computation). It is the offline
// System's restoration path, whose configurations need not pre-provision
// the k edges of Theorem 2; the online engine requires that they are
// (Provision.Servable), reads a component's LSP by base-set index, and
// keeps a Resolver only as its tests' independent reference.
//
// A Resolver is not safe for concurrent use; it mutates both Net and
// LSPs.
type Resolver struct {
	// Net receives on-demand LSP establishment.
	Net *mpls.Network
	// LSPs is the resolver's registry, keyed by path key. On-demand LSPs
	// are added to it.
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
		lsp, ok := r.LSPs[key]
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
