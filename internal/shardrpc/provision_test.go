package shardrpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// referenceProvision provisions cfg over g path by path, the way
// rbpc.NewSystem did before it provisioned in flat passes: the base set
// through Explicit.Add of each served pair's Between, then the closure and
// the edge paths; one EstablishLSP per base path, in base order, on a
// fresh network; one SetFEC per served pair, pushing its primary.
func referenceProvision(t *testing.T, g *graph.Graph, cfg rbpc.Config) (*paths.Explicit, *mpls.Network, []*mpls.LSP) {
	t.Helper()
	sources := cfg.Sources
	if sources == nil {
		for v := 0; v < g.Order(); v++ {
			sources = append(sources, graph.NodeID(v))
		}
	}
	all := paths.NewAllShortest(g)
	base := paths.NewExplicit(g)
	for _, s := range sources {
		for d := 0; d < g.Order(); d++ {
			if p, ok := all.Between(s, graph.NodeID(d)); ok && graph.NodeID(d) != s {
				base.Add(p)
			}
		}
	}
	if cfg.SubpathClosure {
		base = paths.SubpathClosure(base)
	}
	if cfg.EdgeLSPs {
		for _, e := range g.Edges() {
			base.Add(paths.EdgePath(g, e.ID, e.U))
			base.Add(paths.EdgePath(g, e.ID, e.V))
		}
	}
	net := mpls.NewNetwork(g)
	lsps := make([]*mpls.LSP, 0, base.Len())
	for _, p := range base.All() {
		lsp, err := net.EstablishLSP(p)
		if err != nil {
			t.Fatal(err)
		}
		lsps = append(lsps, lsp)
	}
	for _, s := range sources {
		for d := 0; d < g.Order(); d++ {
			if idx, ok := base.IndexBetween(s, graph.NodeID(d)); ok {
				net.SetFEC(s, graph.NodeID(d), mpls.FECEntry{Stack: []mpls.Label{lsps[idx].SelfLabel()}, OutEdge: mpls.LocalProcess})
			}
		}
	}
	return base, net, lsps
}

// TestNewSystemMatchesEstablish: rbpc.NewSystem provisions in flat passes on
// every core — base paths read off each source's tree, a range of sources
// a goroutine; the LSPs established in chunks, each taking its labels at
// every router from a prefix sum of the chunks' counts; the keys, the arc
// index and the key map built beside them — and must produce, at
// GOMAXPROCS 1, 2 and 4, exactly what provisioning path by path does: the
// same base set in the same order with the same costs, the same LSP IDs,
// paths and labels, every router's ILM rows and FEC rows, the same key
// registry, the same signaling count, and the same attach digest
// (registryDigest). The digests are pinned as well: a worker must attach to
// a coordinator built from an older checkout.
func TestNewSystemMatchesEstablish(t *testing.T) {
	waxman := topology.Waxman(40, 0.8, 0.5, 3)
	as, err := topology.Build("as", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		cfg    rbpc.Config
		digest uint32
	}{
		{"waxman/closure", waxman, rbpc.DefaultConfig(), 0x1b348ff6},
		{"waxman/hot-set", waxman, rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{7, 0, 31, 5}}, 0xf6f3486d},
		{"as/0.05", as, rbpc.Config{EdgeLSPs: true}, 0x1f0ae3e5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, net, lsps := referenceProvision(t, tc.g, tc.cfg)
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					sys, err := rbpc.NewSystem(tc.g, tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					p := sys.Export()

					if p.Base.Len() != base.Len() || len(p.BaseLSPs) != len(lsps) {
						t.Fatalf("%d base paths and %d LSPs, the reference %d and %d", p.Base.Len(), len(p.BaseLSPs), base.Len(), len(lsps))
					}
					rows := 0
					for i, want := range base.All() {
						if got := p.Base.All()[i]; !got.Equal(want) || math.Float64bits(p.Base.CostAt(int32(i))) != math.Float64bits(base.CostAt(int32(i))) {
							t.Fatalf("base path %d is %v at cost %v, the reference's %v at %v", i, got, p.Base.CostAt(int32(i)), want, base.CostAt(int32(i)))
						}
						got, ref := p.BaseLSPs[i], lsps[i]
						if got.ID != ref.ID || !got.Path.Equal(ref.Path) || got.PHP != ref.PHP || got.SelfLabel() != ref.SelfLabel() {
							t.Fatalf("LSP %d is %d %v (self-label %d), the reference's %d %v (%d)", i, got.ID, got.Path, got.SelfLabel(), ref.ID, ref.Path, ref.SelfLabel())
						}
						m := ref.Path.Hops()
						first, _ := ref.HopLabel(0)
						sameRow(t, p.Net, net, ref.Ingress(), ref.SelfLabel(), mpls.ILMEntry{Out: []mpls.Label{first}, OutEdge: ref.Path.Edges[0], LSP: ref.ID})
						for h := 0; h < m; h++ {
							gl, _ := got.HopLabel(h)
							rl, _ := ref.HopLabel(h)
							if gl != rl {
								t.Fatalf("LSP %d hop %d carries label %d, the reference's %d", ref.ID, h, gl, rl)
							}
							row := mpls.ILMEntry{OutEdge: mpls.LocalProcess, LSP: ref.ID} // the egress pops
							if h+1 < m {
								next, _ := ref.HopLabel(h + 1)
								row = mpls.ILMEntry{Out: []mpls.Label{next}, OutEdge: ref.Path.Edges[h+1], LSP: ref.ID}
							}
							sameRow(t, p.Net, net, ref.Path.Nodes[h+1], rl, row)
						}
						rows += m + 1
					}
					total := 0
					for v := 0; v < tc.g.Order(); v++ {
						id := graph.NodeID(v)
						gr, rr := p.Net.Router(id), net.Router(id)
						if gr.ILMSize() != rr.ILMSize() {
							t.Fatalf("router %d holds %d ILM rows, the reference %d", v, gr.ILMSize(), rr.ILMSize())
						}
						total += rr.ILMSize()
						dsts := rr.FECDests()
						if !reflect.DeepEqual(gr.FECDests(), dsts) {
							t.Fatalf("router %d has FEC rows for %v, the reference for %v", v, gr.FECDests(), dsts)
						}
						for _, d := range dsts {
							ge, _ := gr.FECEntryFor(d)
							re, _ := rr.FECEntryFor(d)
							if !reflect.DeepEqual(ge, re) {
								t.Fatalf("router %d's FEC row for %d is %+v, the reference's %+v", v, d, ge, re)
							}
						}
					}
					if total != rows {
						t.Fatalf("the tables hold %d ILM rows and the LSPs install %d: some row was not compared", total, rows)
					}
					if len(p.LSPs) != len(lsps) {
						t.Fatalf("the key registry holds %d LSPs, the reference %d", len(p.LSPs), len(lsps))
					}
					for _, ref := range lsps {
						if got := p.LSPs[ref.Path.Key()]; got == nil || got.ID != ref.ID {
							t.Fatalf("key %q names %v, the reference LSP %d", ref.Path.Key(), got, ref.ID)
						}
					}
					if gs, rs := p.Net.Stats(), net.Stats(); gs != rs {
						t.Fatalf("network counters %+v, the reference's %+v", gs, rs)
					}
					got, want := registryDigest(p.BaseLSPs), registryDigest(lsps)
					if got != want || got != tc.digest {
						t.Fatalf("attach digest %#x, the reference's %#x, pinned %#x", got, want, tc.digest)
					}
				})
			}
		})
	}
}

// sameRow fails unless router v holds row for label l in got and in want.
func sameRow(t *testing.T, got, want *mpls.Network, v graph.NodeID, l mpls.Label, row mpls.ILMEntry) {
	t.Helper()
	ge, gok := got.Router(v).ILMEntryFor(l)
	we, wok := want.Router(v).ILMEntryFor(l)
	if !gok || !wok || !reflect.DeepEqual(ge, row) || !reflect.DeepEqual(we, row) {
		t.Fatalf("router %d's ILM row for label %d is %+v (%v), the reference's %+v (%v), the LSP's %+v", v, l, ge, gok, we, wok, row)
	}
}

// TestWriteProvisionMatchesSystem: a worker process builds the write side
// of the provision only (rbpc.WriteProvision, in RunWorker), and
// it must be NewSystem's export minus the forwarding plane, on the three
// provision shapes of internal/rbpc's membership tests — the AS stand-in, a
// subpath closure and a hot set: the same base paths at the same cost bits,
// pair heads, primary mask and served sources, and LSP records with the
// export's IDs and paths and no labels; the same attach hello on every
// shard; and a worker built on it publishes, over a churn schedule, epoch
// frames byte-identical to those of a worker built on the full export.
func TestWriteProvisionMatchesSystem(t *testing.T) {
	waxman := topology.Waxman(30, 0.8, 0.5, 4)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  rbpc.Config
	}{
		{"as-0.05", topology.PaperAS(1, 0.05), rbpc.Config{EdgeLSPs: true}},
		{"waxman-closure", waxman, rbpc.DefaultConfig()},
		{"waxman-hot-set", waxman, rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{3, 7, 8, 20, 29}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := rbpc.NewSystem(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			full := sys.Export()
			wp, err := rbpc.WriteProvision(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wp.Net != nil || wp.LSPs != nil || wp.Graph != tc.g {
				t.Fatalf("the write side holds network %p and key registry of %d, over graph %p (want none, none, %p)", wp.Net, len(wp.LSPs), wp.Graph, tc.g)
			}
			if wp.Base.Len() != full.Base.Len() || len(wp.BaseLSPs) != len(full.BaseLSPs) {
				t.Fatalf("%d base paths and %d LSPs, the system's %d and %d", wp.Base.Len(), len(wp.BaseLSPs), full.Base.Len(), len(full.BaseLSPs))
			}
			for i, want := range full.Base.All() {
				if got := wp.Base.All()[i]; !got.Equal(want) || math.Float64bits(wp.Base.CostAt(int32(i))) != math.Float64bits(full.Base.CostAt(int32(i))) {
					t.Fatalf("base path %d is %v at cost %v, the system's %v at %v", i, got, wp.Base.CostAt(int32(i)), want, full.Base.CostAt(int32(i)))
				}
				got, ref := wp.BaseLSPs[i], full.BaseLSPs[i]
				if got.ID != ref.ID || !got.Path.Equal(ref.Path) {
					t.Fatalf("LSP record %d is %d %v, the system's LSP %d %v", i, got.ID, got.Path, ref.ID, ref.Path)
				}
				if _, labelled := got.HopLabel(0); labelled || got.SelfLabel() != 0 {
					t.Fatalf("LSP record %d carries labels", got.ID)
				}
			}
			if !slices.Equal(wp.Base.PairHeads(), full.Base.PairHeads()) || !slices.Equal(wp.PrimaryMask(), full.PrimaryMask()) || !slices.Equal(wp.Serves, full.Serves) {
				t.Fatal("pair heads, primary mask or served sources differ from the system's")
			}

			const shards = 2
			evs := failure.ChurnSchedule(tc.g, 120, 3, rand.New(rand.NewSource(11)))
			for idx := 0; idx < shards; idx++ {
				cfg := Config{Shards: shards}
				if got, want := contract(wp, cfg, idx), contract(full, cfg, idx); got != want {
					t.Fatalf("shard %d: the write side's hello %+v, the system's %+v", idx, got, want)
				}
				got, want := workerFrames(t, wp, cfg, idx, evs), workerFrames(t, full, cfg, idx, evs)
				if len(got) != len(want) {
					t.Fatalf("shard %d: %d epoch frames over the write side, %d over the system", idx, len(got), len(want))
				}
				rows := false
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("shard %d: epoch frame %d differs between the write side and the system", idx, i)
					}
					rows = rows || len(want[i]) > len(want[0])+64
				}
				if !rows {
					t.Fatalf("vacuous: shard %d published no epoch with overlay rows", idx)
				}
			}
		})
	}
}

// workerFrames builds shard idx's worker over p and returns the wire frame
// of every epoch it publishes — the pristine one, then one a burst — as it
// takes evs in bursts of up to three, flushing after each.
func workerFrames(t *testing.T, p rbpc.Provision, cfg Config, idx int, evs []failure.Event) [][]byte {
	t.Helper()
	var frames [][]byte
	frame := func(s *engine.Snapshot) {
		buf, err := s.AppendWire(nil)
		if err != nil {
			t.Error(err)
		}
		frames = append(frames, buf)
	}
	cfg.Engine.OnEpoch = frame // called on the writer goroutine; Flush orders it before the read
	w, err := NewWorker(p, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	frame(w.Engine().Snapshot())
	for i := 0; i < len(evs); i += 3 {
		w.Engine().ApplyEvents(evs[i:min(i+3, len(evs))])
		w.Engine().Flush()
	}
	return frames
}

// perRecordDigest is registryDigest as it was first written, one
// crc32.Update per LSP record: the reference the run-length form must
// equal.
func perRecordDigest(lsps []*mpls.LSP) (sum uint32, stream int) {
	var buf []byte
	for _, l := range lsps {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(l.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Path.Edges)))
		for _, v := range l.Path.Nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, e := range l.Path.Edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
		sum = crc32.Update(sum, castagnoli, buf)
		stream += len(buf)
	}
	return sum, stream
}

// TestRegistryDigestMatchesPerRecord: the hello's digest, checksummed in
// runs of digestRun bytes, equals the per-record checksum on the three
// membership provisions, for the coordinator's LSPs and a worker's records
// alike. The AS table spans many runs, so a run boundary inside a record is
// crossed.
func TestRegistryDigestMatchesPerRecord(t *testing.T) {
	waxman := topology.Waxman(30, 0.8, 0.5, 4)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  rbpc.Config
		runs int // at least this many runs of digestRun bytes
	}{
		{"as-0.05", topology.PaperAS(1, 0.05), rbpc.Config{EdgeLSPs: true}, 8},
		{"waxman-closure", waxman, rbpc.DefaultConfig(), 0},
		{"waxman-hot-set", waxman, rbpc.Config{EdgeLSPs: true, Sources: []graph.NodeID{3, 7, 8, 20, 29}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := rbpc.NewSystem(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := rbpc.WriteProvision(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, stream := perRecordDigest(sys.Export().BaseLSPs)
			if stream < tc.runs*digestRun {
				t.Fatalf("the table is %d bytes, under %d runs", stream, tc.runs)
			}
			if got := registryDigest(sys.Export().BaseLSPs); got != want {
				t.Fatalf("registryDigest of the system's LSPs = %#x, per record %#x", got, want)
			}
			if got := registryDigest(wp.BaseLSPs); got != want {
				t.Fatalf("registryDigest of the write side's records = %#x, per record %#x", got, want)
			}
		})
	}
}
