package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// halfSlice narrows a provision to the sources a two-shard deployment's
// shard 0 serves, as shard.SliceProvision does.
func halfSlice(p rbpc.Provision) rbpc.Provision {
	serves := make([]bool, len(p.Serves))
	for src, served := range p.Serves {
		serves[src] = served && src%2 == 0
	}
	p.Serves = serves
	return p
}

// TestCanonicalIsThePrimary: the canonical answer of every served pair is
// exactly its primary — one component, the provision's LSP at the pair's
// base-set index, and the cost bits of Path.CostIn over the graph — and a
// pair without a primary or a source the provision does not serve answers
// nil. It holds for the engine's table and for a decoder's, pristine and
// after every step of a churn schedule (the table read under the overlay,
// and the decoded replica's), on a full provision, on a hot-set provision
// and on a shard's slice of the full one; engine and decoder agree on every
// source both serve.
func TestCanonicalIsThePrimary(t *testing.T) {
	g := topology.Waxman(16, 0.8, 0.5, 3)
	full, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{1, 4, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		engine, of rbpc.Provision // the engine's provision and the deployment's, the decoder's
	}{
		{"full", full.Export(), full.Export()},
		{"hot set", hot.Export(), hot.Export()},
		{"half slice", halfSlice(full.Export()), full.Export()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.engine, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			dec, err := NewSnapDecoder(tc.of)
			if err != nil {
				t.Fatal(err)
			}
			check := func(tag string) {
				t.Helper()
				live := e.Snapshot()
				buf, err := live.AppendWire(nil)
				if err != nil {
					t.Fatal(err)
				}
				replica, err := dec.Decode(buf)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < g.Order(); s++ {
					src := graph.NodeID(s)
					if live.Materialized(src) != tc.engine.Serves[s] || replica.Materialized(src) != tc.of.Serves[s] {
						t.Fatalf("%s: source %d materialized by the engine %v, the decoder %v; served %v, %v",
							tag, s, live.Materialized(src), replica.Materialized(src), tc.engine.Serves[s], tc.of.Serves[s])
					}
					for d := 0; d < g.Order(); d++ {
						dst := graph.NodeID(d)
						got, rep := live.canon.route(src, dst), replica.canon.route(src, dst)
						if err := isPrimary(tc.engine, src, dst, got); err != nil {
							t.Fatalf("%s: engine: %v", tag, err)
						}
						if err := isPrimary(tc.of, src, dst, rep); err != nil {
							t.Fatalf("%s: decoder: %v", tag, err)
						}
						if tc.engine.Serves[s] && (got == nil) != (rep == nil) {
							t.Fatalf("%s: pair %d->%d: engine %v, decoder %v", tag, s, d, got, rep)
						}
						if live.Epoch() == 0 && live.Route(src, dst) != got {
							t.Fatalf("%s: pair %d->%d: the pristine answer %v is not the canonical %v", tag, s, d, live.Route(src, dst), got)
						}
					}
				}
			}
			check("pristine")
			for step, ev := range failure.ChurnSchedule(g, 30, 3, rand.New(rand.NewSource(11))) {
				e.ApplyEvents([]failure.Event{ev})
				e.Flush()
				check(fmt.Sprintf("step %d", step))
			}
		})
	}
}

// isPrimary checks one canonical answer against the provision: the pair's
// primary LSP alone at the cost bits of its path over the graph, nil where
// the pair has no primary or the provision does not serve its source.
func isPrimary(p rbpc.Provision, src, dst graph.NodeID, rt *Route) error {
	idx, ok := p.Primary(src, dst)
	if !ok {
		if rt != nil {
			return fmt.Errorf("pair %d->%d has no primary (source served %v) but answers %v", src, dst, p.Serves[src], rt)
		}
		return nil
	}
	lsp := p.BaseLSPs[idx]
	switch {
	case rt == nil:
		return fmt.Errorf("pair %d->%d answers nil, its primary is LSP %d", src, dst, lsp.ID)
	case len(rt.LSPs) != 1 || rt.LSPs[0] != lsp:
		return fmt.Errorf("pair %d->%d answers LSPs %v, its primary is LSP %d", src, dst, rt.LSPs, lsp.ID)
	case math.Float64bits(rt.Cost) != math.Float64bits(lsp.Path.CostIn(p.Graph)):
		return fmt.Errorf("pair %d->%d costs %v, its primary %v", src, dst, rt.Cost, lsp.Path.CostIn(p.Graph))
	case rt.Via != SchemeSource || len(rt.Path.Nodes) != 0:
		return fmt.Errorf("pair %d->%d answers a %v route with a path", src, dst, rt.Via)
	}
	return nil
}
