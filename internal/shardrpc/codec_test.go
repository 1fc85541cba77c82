package shardrpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
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
// exactly its image's bytes — the 8-byte acks, the hello and the stats
// record alike.
func TestFixedFramesRefuseOtherSizes(t *testing.T) {
	for _, v := range []any{new(uint64), new(int64), new(hello), new(engine.Stats)} {
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
			LocalNanos: 13,
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
