package shardrpc

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"testing"

	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/topology"
)

// BenchmarkFrameChecksum measures the payload checksum at the two frame
// sizes that matter: a 256-pair query batch and an overlay snapshot. The
// figure wire.go's comment quotes is this one.
func BenchmarkFrameChecksum(b *testing.B) {
	for _, size := range []int{2 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			p := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(p)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint32
			for i := 0; i < b.N; i++ {
				sum += checksum(p)
			}
			if sum == 1 {
				b.Log(sum) // keeps the loop's result alive
			}
		})
	}
}

// benchProvision is the benchmark of record's topology: the AS stand-in at
// scale 0.05 (237 nodes, 55 932 LSPs), whose routes do not fit the cache.
func benchProvision(b *testing.B) rbpc.Provision {
	b.Helper()
	sys, err := rbpc.NewSystem(topology.PaperAS(1, 0.05), rbpc.Config{EdgeLSPs: true})
	if err != nil {
		b.Fatal(err)
	}
	return sys.Export()
}

// BenchmarkBatchFrameRoundTrip measures one query frame out and its answer
// frame back through every step the client and the worker run per frame —
// the filtered encode, checksum, write, read, the worker's serveBatch, and
// write, read, checksum, scan on the way home — over an in-process pipe
// and over a Unix socket pair. A 512-pair burst over two shards is a
// 256-pair frame each; the batches cycle through a pool several times the
// pair space, so the worker's lookups miss the cache as they do in
// service. With one frame in flight the figure is the round trip's cost;
// with 32 it is the pipelined rate a saturated coordinator sees, where the
// frames one read brings in are answered in one write.
func BenchmarkBatchFrameRoundTrip(b *testing.B) {
	const shards, burst = 2, 512
	p := benchProvision(b)
	w, err := NewWorker(p, 0, Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	n := p.Graph.Order()
	rng := rand.New(rand.NewSource(5))
	pool := make([]rbpc.Pair, 256*burst)
	for i := range pool {
		pool[i] = rbpc.Pair{Src: graph.NodeID(rng.Intn(n)), Dst: graph.NodeID(rng.Intn(n))}
	}

	transports := []struct {
		name string
		dial func(b *testing.B) (net.Conn, net.Conn)
	}{
		{"pipe", func(*testing.B) (net.Conn, net.Conn) { return net.Pipe() }},
		{"unix", func(b *testing.B) (net.Conn, net.Conn) {
			l, err := net.Listen("unix", filepath.Join(b.TempDir(), "w.sock"))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			cc, err := net.Dial("unix", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			wc, err := l.Accept()
			if err != nil {
				b.Fatal(err)
			}
			return cc, wc
		}},
	}
	mine := make([]uint8, n)
	owners, err := shard.NewOwners(shards, n)
	if err != nil {
		b.Fatal(err)
	}
	for src, o := range owners {
		if o == 0 {
			mine[src] = 1
		}
	}
	for _, tr := range transports {
		for _, window := range []int{1, 32} {
			b.Run(fmt.Sprintf("%s/inflight=%d", tr.name, window), func(b *testing.B) {
				cc, wc := tr.dial(b)
				go w.ServeConn(wc)
				c := NewConn(cc)
				defer c.Close()
				if err := c.WriteFrame(ftAttach, roleQuery, 0, nil); err != nil {
					b.Fatal(err)
				}
				if typ, _, _, _, err := c.ReadFrame(); err != nil || typ != ftHello {
					b.Fatalf("attach: frame %d, %v", typ, err)
				}
				buf := make([]byte, queryBatchSize(burst))
				slots := make(chan struct{}, window) // frames in flight
				b.ReportAllocs()
				b.ResetTimer()
				go func() {
					for i := 0; i < b.N; i++ {
						slots <- struct{}{}
						at := i % (len(pool) / burst) * burst
						k := fillOwnedBatch(buf, pool[at:at+burst], mine)
						if c.WriteFrame(ftQueryBatch, 0, uint32(i), buf[:queryBatchSize(k)]) != nil {
							return // the reader reports the dead connection
						}
					}
				}()
				var queries, unroutable int64
				for i := 0; i < b.N; i++ {
					_, _, _, payload, err := c.ReadFrame()
					if err != nil {
						b.Fatal(err)
					}
					got, ok := answerBatchCount(payload)
					if !ok {
						b.Fatal("malformed answer batch")
					}
					unroutable += scanUnroutable(payload, got)
					queries += int64(got)
					<-slots
				}
				b.StopTimer()
				if unroutable != 0 {
					b.Fatalf("%d of %d answers unroutable on a pristine network", unroutable, queries)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
			})
		}
	}
}
