package shardrpc

import (
	"sync"
	"testing"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// fuzzDecoder is the shared canonical decoder the fuzzers resolve frames
// against — built once from a fixed topology so every input exercises
// real bounds (node/edge ranges, registry lookups).
var fuzzDecoder = sync.OnceValue(func() *engine.SnapDecoder {
	g := topology.Waxman(12, 0.8, 0.5, 99)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		panic(err)
	}
	dec, err := engine.NewSnapDecoder(sys.Export())
	if err != nil {
		panic(err)
	}
	return dec
})

// Selector bytes routing a fuzz input to one decoder.
const (
	fuzzSnapshot byte = iota
	_                 // the retired answer frame: its corpus entries decode nothing
	fuzzBurst
	fuzzStats
	fuzzHello
	fuzzKinds
)

// FuzzFrameDecode throws arbitrary payloads at every frame decoder on
// this wire. The invariant under test is total robustness: a decoder
// handed hostile bytes may reject, never panic — and when it accepts, a
// re-encode must decode to the same bytes (round-trip stability), so a
// malicious or torn-but-checksum-colliding frame cannot smuggle
// inconsistent state past the decode layer.
func FuzzFrameDecode(f *testing.F) {
	f.Add(seedSnapshotFrame(fuzzSnapshot))
	f.Add(seedBurstFrame())
	f.Add(seedStatsFrame())
	f.Add(seedHelloFrame())
	f.Add([]byte{})
	f.Add([]byte{fuzzSnapshot})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dec := fuzzDecoder()
		kind, payload := data[0]%fuzzKinds, data[1:]
		switch kind {
		case fuzzSnapshot:
			snap, err := dec.Decode(payload)
			if err != nil {
				return
			}
			re, err := snap.AppendWire(nil)
			if err != nil {
				t.Fatalf("accepted snapshot refuses to re-encode: %v", err)
			}
			if string(re) != string(payload) {
				t.Fatalf("snapshot round trip unstable:\nin  %x\nout %x", payload, re)
			}
		case fuzzBurst:
			evs, err := decodeBurst(payload, nil)
			if err != nil {
				return
			}
			if string(appendBurst(nil, evs)) != string(payload) {
				t.Fatal("burst round trip unstable")
			}
		case fuzzStats:
			var st engine.Stats
			if decodeFixed(payload, &st) != nil {
				return
			}
			if string(appendFixed(nil, st)) != string(payload) {
				t.Fatal("stats round trip unstable")
			}
		case fuzzHello:
			var h hello
			if decodeFixed(payload, &h) != nil {
				return
			}
			if string(appendFixed(nil, h)) != string(payload) {
				t.Fatal("hello round trip unstable")
			}
		}
	})
}

// seedSnapshotFrame builds a real churned snapshot frame so the fuzzer
// starts from deep coverage, not from "short frame" rejections.
func seedSnapshotFrame(selector byte) []byte {
	g := topology.Waxman(12, 0.8, 0.5, 99)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		panic(err)
	}
	eng, err := engine.New(sys.Export(), engine.Config{})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	eng.Fail(2)
	eng.Fail(7)
	eng.Flush()
	buf, err := eng.Snapshot().AppendWire([]byte{selector})
	if err != nil {
		panic(err)
	}
	return buf
}

func seedBurstFrame() []byte {
	return appendBurst([]byte{fuzzBurst}, []failure.Event{
		{Edge: 3}, {Repair: true, Edge: 3}, {Edge: 9},
	})
}

func seedStatsFrame() []byte {
	return appendFixed([]byte{fuzzStats}, engine.Stats{
		Epoch: 3, Queries: 10, RowBytes: 1 << 12,
		Stretch: metrics.AccSummary{Count: 2, Mean: 1000.5, Max: 1100},
	})
}

func seedHelloFrame() []byte {
	return appendFixed([]byte{fuzzHello}, hello{
		Shard: 1, Shards: 4, Nodes: 12, Links: 40, LSPs: 236, LSPSum: 0x1badc0de, Epoch: 2,
	})
}
