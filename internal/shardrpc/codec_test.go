package shardrpc

import (
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
)

// TestFrameRoundTrip drives random frames through a pipe-backed Conn and
// asserts type, flags, sequence, and payload survive byte-for-byte.
func TestFrameRoundTrip(t *testing.T) {
	cc, wc := net.Pipe()
	a, b := NewConn(cc), NewConn(wc)
	defer a.Close()
	defer b.Close()
	rng := rand.New(rand.NewSource(1))
	go func() {
		for i := 0; i < 64; i++ {
			payload := make([]byte, rng.Intn(512))
			rng.Read(payload)
			if err := a.WriteFrame(byte(i%17+1), byte(i%3), uint32(i), payload); err != nil {
				return
			}
		}
	}()
	rng2 := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		want := make([]byte, rng2.Intn(512))
		rng2.Read(want)
		typ, flags, seq, payload, err := b.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i%17+1) || flags != byte(i%3) || seq != uint32(i) {
			t.Fatalf("frame %d header diverged: type %d flags %d seq %d", i, typ, flags, seq)
		}
		if string(payload) != string(want) {
			t.Fatalf("frame %d payload diverged", i)
		}
	}
}

// TestTornFrameDropped corrupts a frame in transit and proves the reader
// skips it, counts it, and keeps framing the stream.
func TestTornFrameDropped(t *testing.T) {
	cc, wc := net.Pipe()
	a, b := NewConn(cc), NewConn(wc)
	defer a.Close()
	defer b.Close()
	armTornFrame(a)
	go func() {
		a.WriteFrame(ftBurst, 0, 1, appendBurst(nil, []failure.Event{{Edge: 3}}))
		a.WriteFrame(ftFlush, 0, 2, nil)
	}()
	typ, _, seq, _, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != ftFlush || seq != 2 {
		t.Fatalf("reader delivered frame %d seq %d, want the flush after the torn burst", typ, seq)
	}
	if b.Torn() != 1 {
		t.Fatalf("torn counter %d, want 1", b.Torn())
	}
}

// TestBurstCodecRoundTrip: property test over random event bursts.
func TestBurstCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		evs := make([]failure.Event, n)
		for i := range evs {
			evs[i] = failure.Event{Repair: rng.Intn(2) == 1, Edge: graph.EdgeID(rng.Intn(1 << 20))}
		}
		got, err := decodeBurst(appendBurst(nil, evs), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(evs) {
			t.Fatalf("trial %d: %d events decoded as %d", trial, len(evs), len(got))
		}
		for i := range evs {
			if got[i] != evs[i] {
				t.Fatalf("trial %d: event %d %+v decoded as %+v", trial, i, evs[i], got[i])
			}
		}
	}
}

// TestQueryAnswerBatchRoundTrip: property test over the hot frames —
// query batches and answer batches — including Float64bits identity for
// awkward costs (negative zero, subnormals, NaN payloads, infinities).
func TestQueryAnswerBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	awkward := []uint64{
		0, math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()), 1, // subnormal
		math.Float64bits(0.1), math.MaxUint64,
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		pairs := make([]rbpc.Pair, n)
		for i := range pairs {
			pairs[i] = rbpc.Pair{Src: graph.NodeID(rng.Intn(1 << 16)), Dst: graph.NodeID(rng.Intn(1 << 16))}
		}
		qb := grow(nil, queryBatchSize(n))
		fillQueryBatch(qb, pairs)
		gotN, ok := queryBatchCount(qb)
		if !ok || gotN != n {
			t.Fatalf("trial %d: query batch count %d ok=%v, want %d", trial, gotN, ok, n)
		}
		for i := range pairs {
			src, dst := queryAt(qb, i)
			if graph.NodeID(src) != pairs[i].Src || graph.NodeID(dst) != pairs[i].Dst {
				t.Fatalf("trial %d: pair %d diverged", trial, i)
			}
		}

		flags := make([]byte, n)
		bits := make([]uint64, n)
		ab := grow(nil, answerBatchSize(n))
		fillAnswerCount(ab, n)
		for i := 0; i < n; i++ {
			flags[i] = byte(rng.Intn(8))
			bits[i] = awkward[rng.Intn(len(awkward))]
			fillAnswerAt(ab, i, flags[i], bits[i])
		}
		gotN, ok = answerBatchCount(ab)
		if !ok || gotN != n {
			t.Fatalf("trial %d: answer batch count %d ok=%v, want %d", trial, gotN, ok, n)
		}
		for i := 0; i < n; i++ {
			f, bs := answerAt(ab, i)
			if f != flags[i] || bs != bits[i] {
				t.Fatalf("trial %d: answer %d flags %d bits %x, want %d %x", trial, i, f, bs, flags[i], bits[i])
			}
		}
	}
}

// TestHelloCodecRoundTrip covers the handshake frame.
func TestHelloCodecRoundTrip(t *testing.T) {
	h := hello{shard: 3, shards: 8, vnodes: 1024, ringSeed: 0x9e3779b97f4a7c15, nodes: 4096, links: 16384, epoch: 77}
	got, err := decodeHello(appendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello %+v decoded as %+v", h, got)
	}
}

// TestStatsCodecRoundTrip fills every engine.Stats field with a distinct
// value and proves the hand-rolled codec carries all of them — a new
// engine stat that is not added to the codec fails this test by
// construction (reflect covers the struct).
func TestStatsCodecRoundTrip(t *testing.T) {
	st := engine.Stats{
		Epoch: 9, SnapshotAge: 8 * time.Millisecond,
		Queries: 100, Unroutable: 3, Submitted: 50, Dropped: 2, QueueDepth: 7,
		Epochs: 11, PlanCacheHits: 13, PlanCacheMiss: 17, OnDemandLSPs: 19,
		RowBytes: 1 << 20, DenseRowBytes: 1 << 24,
		QueryLatency: metrics.Summary{Count: 5, P50: 1, P90: 2, P99: 3, Max: 4},
		EpochBuild:   metrics.Summary{Count: 6, P50: 5, P90: 6, P99: 7, Max: 8},
		Incremental: engine.IncrementalStats{
			PairsReused: 1, PairsRecomputed: 2, Entering: 3, Leaving: 4,
			StaleRoutes: 5, RepairImproved: 6, TreesAdopted: 7, FullRebuilds: 8,
			AffectedNanos: 9, SolveNanos: 10, ResolveNanos: 11, AssembleNanos: 12,
		},
		Scheme:  engine.SchemeHybrid,
		Restore: metrics.Summary{Count: 2, P50: 9, P90: 10, P99: 11, Max: 12},
		LocalBuild: metrics.Summary{
			Count: 3, P50: 13, P90: 14, P99: 15, Max: 16,
		},
		Stretch:    metrics.AccSummary{Count: 4, Mean: 1001.5, Max: 1100},
		DetourHops: metrics.AccSummary{Count: 5, Mean: 2.5, Max: 6},
		LocalPairs: 21, LocalUnrestorable: 22, Converged: 23, PendingTimers: 24,
	}
	got, err := decodeStats(appendStats(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("stats diverged:\nwant %+v\ngot  %+v", st, got)
	}
	// Every exported field must be non-zero above, or this test cannot
	// prove the codec carries it.
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s left zero — give it a distinct value", v.Type().Field(i).Name)
		}
	}
}

// TestAnswerCodecRoundTrip covers the full single-query answer,
// including route resolution against the decoder registry and cost bit
// identity.
func TestAnswerCodecRoundTrip(t *testing.T) {
	p := buildProvision(t, 12, 33)
	dec, err := engine.NewSnapDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	// Borrow a real provisioned route so path resolution exercises the
	// registry hit path.
	var rt *engine.Route
	for pr := range p.Routes {
		eng, err := engine.New(p, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt = eng.Query(pr.Src, pr.Dst).Route
		eng.Close()
		break
	}
	if rt == nil {
		t.Fatal("no provisioned route to round-trip")
	}
	cases := []Answer{
		{Epoch: 3, Failed: []graph.EdgeID{1, 5, 9}, Route: rt, ProbeResult: probe.ProbeResult{Routable: true, Delivered: true, FailedContains: true}},
		{Epoch: 0},
		{Epoch: 1 << 40, Failed: []graph.EdgeID{0}, ProbeResult: probe.ProbeResult{FailedContains: true}},
	}
	for i, want := range cases {
		got, err := decodeAnswer(appendAnswer(nil, want), dec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Epoch != want.Epoch || got.Routable != want.Routable ||
			got.Delivered != want.Delivered || got.FailedContains != want.FailedContains {
			t.Fatalf("case %d: scalar fields diverged: %+v vs %+v", i, want, got)
		}
		if !reflect.DeepEqual(got.Failed, want.Failed) {
			t.Fatalf("case %d: failed-set %v decoded as %v", i, want.Failed, got.Failed)
		}
		if (got.Route == nil) != (want.Route == nil) {
			t.Fatalf("case %d: route presence diverged", i)
		}
		if want.Route != nil {
			if math.Float64bits(got.Route.Cost) != math.Float64bits(want.Route.Cost) {
				t.Fatalf("case %d: route cost bits diverged", i)
			}
			if len(got.Route.LSPs) != len(want.Route.LSPs) {
				t.Fatalf("case %d: component count diverged", i)
			}
			for j := range want.Route.LSPs {
				if got.Route.LSPs[j] != want.Route.LSPs[j] {
					t.Fatalf("case %d: component %d did not resolve to the registry LSP", i, j)
				}
			}
		}
	}
}
