package rbpc

import (
	"testing"

	"rbpc/internal/topology"
)

// BenchmarkNewSystem provisions the benchmark of record's deployment: the
// AS stand-in at scale 0.05 (seed 1), every source, EdgeLSPs. Run it with
// -benchmem: ns, B and allocs per provision. The full arm is NewSystem,
// what the coordinator's process builds; the write arm is WriteProvision,
// what a worker process builds — the same base set, LSP records without
// labels, and no network.
func BenchmarkNewSystem(b *testing.B) {
	g, err := topology.Build("as", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{EdgeLSPs: true}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewSystem(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := WriteProvision(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
