package mpls_test

import (
	"testing"

	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// BenchmarkNetworkClone measures the cost of a copy of the whole network:
// a 256-router line with an LSP over every link and one over the whole line
// (line), and the benchmark of record's forwarding plane, rbpc.NewSystem
// over the AS stand-in at scale 0.05 (seed 1), every source, EdgeLSPs (as).
// Run it with -benchmem: the B per op is the tables' bytes.
func BenchmarkNetworkClone(b *testing.B) {
	b.Run("line", func(b *testing.B) { benchClone(b, mpls.LineNet(b, 256)) })
	b.Run("as", func(b *testing.B) {
		g, err := topology.Build("as", 0.05, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := rbpc.NewSystem(g, rbpc.Config{EdgeLSPs: true})
		if err != nil {
			b.Fatal(err)
		}
		benchClone(b, sys.Net())
	})
}

func benchClone(b *testing.B, net *mpls.Network) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net = net.Clone()
	}
}
