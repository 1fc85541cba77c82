package rbpc

import (
	"testing"

	"rbpc/internal/topology"
)

// BenchmarkNewSystem provisions the benchmark of record's deployment: the
// AS stand-in at scale 0.05 (seed 1), every source, EdgeLSPs. Run it with
// -benchmem: ns, B and allocs per provision.
func BenchmarkNewSystem(b *testing.B) {
	g, err := topology.Build("as", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(g, Config{EdgeLSPs: true}); err != nil {
			b.Fatal(err)
		}
	}
}
