package shardrpc

import (
	"bytes"
	"encoding/binary"
	"io"
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

// answerAt reads entry i of an answer batch: the read half of fillAnswerAt.
// The client itself reads only the flags bytes (scanUnroutable) — a wire
// batch has no per-answer callback to hand a cost to.
func answerAt(p []byte, i int) (flags byte, costBits uint64) {
	off := 4 + answerEntrySize*i
	return p[off], binary.LittleEndian.Uint64(p[off+1:])
}

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
		// The encode filters a shared burst by the worker's marks: with a
		// random half of the sources marked, the frame holds exactly the
		// marked pairs, in order.
		mine := make([]uint8, 1<<16)
		var want []rbpc.Pair
		for i := range mine {
			mine[i] = uint8(rng.Intn(2))
		}
		for _, pr := range pairs {
			if mine[pr.Src] == 1 {
				want = append(want, pr)
			}
		}
		qb := grow(nil, queryBatchSize(n))
		qb = qb[:queryBatchSize(fillOwnedBatch(qb, pairs, mine))]
		gotN, ok := queryBatchCount(qb)
		if !ok || gotN != len(want) {
			t.Fatalf("trial %d: query batch count %d ok=%v, want %d", trial, gotN, ok, len(want))
		}
		for i := range want {
			src, dst := queryAt(qb, i)
			if graph.NodeID(src) != want[i].Src || graph.NodeID(dst) != want[i].Dst {
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

// TestHelloCodecRoundTrip covers the handshake frame: the binary image of
// hello, 32 bytes, its fields at the offsets of their declaration order.
func TestHelloCodecRoundTrip(t *testing.T) {
	h := hello{Shard: 3, Shards: 8, Nodes: 4096, Links: 16384, LSPs: 55932, LSPSum: 0xdeadbeef, Epoch: 77}
	buf := appendFixed(nil, h)
	if len(buf) != 32 {
		t.Fatalf("hello encodes to %d bytes, want 32", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != h.Shard || le.Uint32(buf[16:]) != h.LSPs || le.Uint32(buf[20:]) != h.LSPSum || le.Uint64(buf[24:]) != h.Epoch {
		t.Fatalf("hello fields are not at their declaration offsets: %x", buf)
	}
	var got hello
	if err := decodeFixed(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello %+v decoded as %+v", h, got)
	}
}

// TestFixedFramesRefuseOtherSizes: a fixed-size frame decodes only from
// exactly its image's bytes — the query (12 bytes, noEdge spelling no
// probe), the 8-byte acks, the hello and the stats record alike.
func TestFixedFramesRefuseOtherSizes(t *testing.T) {
	for _, tc := range []struct {
		q    query
		want query
	}{
		{newQuery(4, 9, 0, false), query{Src: 4, Dst: 9, Probe: noEdge}},
		{newQuery(4, 9, 0, true), query{Src: 4, Dst: 9, Probe: 0}},
		{newQuery(1, 2, 77, true), query{Src: 1, Dst: 2, Probe: 77}},
	} {
		buf := appendFixed(nil, tc.q)
		var got query
		if len(buf) != 12 || decodeFixed(buf, &got) != nil || got != tc.want {
			t.Fatalf("query %+v: %d bytes decoded as %+v, want 12 bytes and %+v", tc.q, len(buf), got, tc.want)
		}
	}
	for _, v := range []any{new(query), new(uint64), new(int64), new(hello), new(engine.Stats)} {
		n := binary.Size(v)
		if n <= 0 {
			t.Fatalf("%T is not fixed-size", v)
		}
		for _, size := range []int{0, n - 1, n + 1} {
			if err := decodeFixed(make([]byte, size), v); err == nil {
				t.Fatalf("%T decoded from %d bytes, its image is %d", v, size, n)
			}
		}
	}
}

// TestStatsCodecRoundTrip fills every engine.Stats field, nested ones
// included, with a distinct value and proves the stats frame — the
// record's binary image — carries all of them: a field added to
// engine.Stats crosses with no codec change, and one that is not
// fixed-size fails the encode.
func TestStatsCodecRoundTrip(t *testing.T) {
	st := engine.Stats{
		Epoch: 9, SnapshotAge: 8 * time.Millisecond,
		Queries: 100, Unroutable: 3, Submitted: 50, Dropped: 2, QueueDepth: 7,
		Epochs: 11, PlanCacheHits: 13, PlanCacheMiss: 17,
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
		LocalPairs: 21, LocalUnrestorable: 22, Converged: 23,
	}
	buf := appendFixed(nil, st)
	if len(buf) != binary.Size(st) {
		t.Fatalf("stats frame is %d bytes, the record's image %d", len(buf), binary.Size(st))
	}
	var got engine.Stats
	if err := decodeFixed(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("stats diverged:\nwant %+v\ngot  %+v", st, got)
	}
	// Every field must be non-zero above, or this test cannot prove the
	// frame carries it.
	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
		} else if v.IsZero() {
			t.Errorf("field %s left zero — give it a distinct value", name)
		}
	}
	walk(reflect.ValueOf(st), "Stats")
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
	eng, err := engine.New(p, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := eng.Query(0, 1).Route
	eng.Close()
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

// memConn is a transport that holds everything written to it: the writer
// never blocks, and a read returns as much as the reader asks for, so a
// buffered reader's refill boundary falls wherever 64 KiB happens to end —
// in the middle of a header, of a payload, or exactly between two frames.
type memConn struct {
	net.Conn // unused methods
	buf      bytes.Buffer
}

func (m *memConn) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memConn) Read(p []byte) (int, error)  { return m.buf.Read(p) }
func (m *memConn) Close() error                { return nil }

// TestFrameSizesAcrossReaderBuffer: payloads of no bytes, of exactly what
// the buffered reader holds, of one byte more (the path through the
// connection's own buffer) and of several buffers, each followed by a small
// frame that must still be found where the big one ended.
func TestFrameSizesAcrossReaderBuffer(t *testing.T) {
	sizes := []int{0, 1, readBuffer - headerSize, readBuffer - headerSize + 1, readBuffer, 3*readBuffer + 7, 0, 0}
	m := &memConn{}
	c := NewConn(m)
	rng := rand.New(rand.NewSource(3))
	var want [][]byte
	for i, n := range sizes {
		p := make([]byte, n)
		rng.Read(p)
		want = append(want, p)
		if err := c.WriteFrame(ftSnapshot, byte(i), uint32(i), p); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFrame(ftPing, 0, uint32(1000+i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range want {
		typ, flags, seq, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d (%d bytes): %v", i, len(p), err)
		}
		if typ != ftSnapshot || flags != byte(i) || seq != uint32(i) || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d (%d bytes) came back as type %d flags %d seq %d, %d bytes", i, len(p), typ, flags, seq, len(payload))
		}
		typ, _, seq, payload, err = c.ReadFrame()
		if err != nil || typ != ftPing || seq != uint32(1000+i) || len(payload) != 1 || payload[0] != byte(i) {
			t.Fatalf("the frame after frame %d came back as type %d seq %d %v (%v)", i, typ, seq, payload, err)
		}
	}
	if _, _, _, _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
	if c.Torn() != 0 {
		t.Fatalf("%d frames dropped on a sound transport", c.Torn())
	}
}

// TestBackToBackFramesAcrossRefill writes 1 000 small frames before the
// first read, one in 97 of them with a byte of its payload flipped in
// transit: the reader must deliver every intact frame once, in order, drop
// and count the torn ones, and lose nothing where its buffer refills.
func TestBackToBackFramesAcrossRefill(t *testing.T) {
	const frames = 1000
	m := &memConn{}
	c := NewConn(m)
	rng := rand.New(rand.NewSource(11))
	tear := false
	c.corrupt = func(_ byte, payload []byte) {
		if tear {
			payload[rng.Intn(len(payload))] ^= 1 << rng.Intn(8)
		}
	}
	type frame struct {
		seq     uint32
		payload []byte
	}
	var want []frame
	torn := int64(0)
	for i := 0; i < frames; i++ {
		p := make([]byte, rng.Intn(200))
		rng.Read(p)
		tear = i%97 == 96 && len(p) > 0
		if tear {
			torn++
		} else {
			want = append(want, frame{uint32(i), p})
		}
		if err := c.WriteFrame(byte(i%17+1), byte(i%3), uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if m.buf.Len() <= readBuffer {
		t.Fatalf("%d bytes written do not cross the reader's %d-byte buffer", m.buf.Len(), readBuffer)
	}
	for _, w := range want {
		typ, flags, seq, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", w.seq, err)
		}
		if seq != w.seq || typ != byte(w.seq%17+1) || flags != byte(w.seq%3) || !bytes.Equal(payload, w.payload) {
			t.Fatalf("want frame %d (%d bytes), got seq %d type %d flags %d (%d bytes)", w.seq, len(w.payload), seq, typ, flags, len(payload))
		}
	}
	if _, _, _, _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
	if c.Torn() != torn {
		t.Fatalf("torn counter %d, want %d", c.Torn(), torn)
	}
}
