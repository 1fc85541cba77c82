package rbpc

import (
	"runtime"
	"testing"

	"rbpc/internal/topology"
)

// BenchmarkNewSystem provisions the benchmark of record's deployment: the
// AS stand-in at scale 0.05 (seed 1), every source, EdgeLSPs. Run it with
// -benchmem: ns, B and allocs per provision. The full arm is NewSystem,
// what the coordinator's process builds; the write arm is WriteProvision,
// what a worker process builds — the same base set, LSP records without
// labels, and no network. Each arm also reports the live heap with the last
// provision it built held (live-B: HeapAlloc after a collection), which is
// what the provision keeps in the process.
func BenchmarkNewSystem(b *testing.B) {
	g, err := topology.Build("as", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{EdgeLSPs: true}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		var s *System
		for i := 0; i < b.N; i++ {
			if s, err = NewSystem(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
		reportLive(b, s)
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var p Provision
		for i := 0; i < b.N; i++ {
			if p, err = WriteProvision(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
		reportLive(b, p)
	})
}

// reportLive reports the live heap, after a collection, while v is held.
func reportLive(b *testing.B, v any) {
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "live-B")
	runtime.KeepAlive(v)
}
