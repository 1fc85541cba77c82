package shardrpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
)

// --- fixed-size frames -----------------------------------------------------

// A fixed-size frame's payload is the encoding/binary image of one value: a
// number, or a struct of fixed-size fields, written field by field in
// declaration order, little-endian, with no padding. The hello, a single
// query, the stats ack (engine.Stats itself), and the 8-byte flush ack and
// pong are such frames; a field added to their types crosses the wire with
// no codec change, and a field that is not fixed-size fails the encode.

// appendFixed appends the encoding/binary image of v to buf.
func appendFixed(buf []byte, v any) []byte {
	w := bytes.NewBuffer(buf)
	if err := binary.Write(w, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("shardrpc: %T is not a fixed-size frame: %v", v, err))
	}
	return w.Bytes()
}

// decodeFixed decodes p, which must be exactly the encoding/binary image
// of the value v points to, into it.
func decodeFixed(p []byte, v any) error {
	if n := binary.Size(v); len(p) != n {
		return fmt.Errorf("shardrpc: %T frame is %d bytes, want %d", v, len(p), n)
	}
	return binary.Read(bytes.NewReader(p), binary.LittleEndian, v)
}

// --- hello -----------------------------------------------------------------

// hello is the worker's side of the attach handshake, a fixed-size frame
// (32 bytes): the ownership contract (shard index and shard count: the
// worker serves the sources equal to shard mod shards), the topology
// fingerprint (orders must match or decoded node/edge IDs would mean
// different things), the LSP table's length and digest (registryDigest:
// decoded LSP IDs likewise) and the worker's current epoch.
type hello struct {
	Shard  uint32
	Shards uint32
	Nodes  uint32
	Links  uint32
	LSPs   uint32
	LSPSum uint32
	Epoch  uint64
}

// contract is the hello of shard idx as a process computes it from its own
// provision, epoch aside: the worker sends it, the coordinator expects it.
func contract(p rbpc.Provision, cfg Config, idx int) hello {
	return hello{
		Shard:  uint32(idx),
		Shards: uint32(cfg.Shards),
		Nodes:  uint32(p.Graph.Order()),
		Links:  uint32(p.Graph.Size()),
		LSPs:   uint32(len(p.BaseLSPs)),
		LSPSum: registryDigest(p.BaseLSPs),
	}
}

// registryDigest is the CRC-32C of a provision's LSP table in order: each
// LSP's ID, hop count, nodes and links. Two processes whose digests (and
// table lengths) agree resolve every LSP ID on the wire to the same path.
func registryDigest(lsps []*mpls.LSP) uint32 {
	var sum uint32
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
	}
	return sum
}

// --- bursts ----------------------------------------------------------------

// appendBurst encodes a fail/repair event burst: count, then one
// (repair, edge) record per event.
func appendBurst(buf []byte, evs []failure.Event) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(evs)))
	for _, ev := range evs {
		var repair byte
		if ev.Repair {
			repair = 1
		}
		buf = binary.LittleEndian.AppendUint32(append(buf, repair), uint32(ev.Edge))
	}
	return buf
}

// decodeBurst appends the frame's events onto evs (reused across frames).
func decodeBurst(p []byte, evs []failure.Event) ([]failure.Event, error) {
	if len(p) < 4 {
		return evs, fmt.Errorf("shardrpc: short burst frame")
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p) != 4+5*n {
		return evs, fmt.Errorf("shardrpc: burst frame length %d does not hold %d events", len(p), n)
	}
	for i := 0; i < n; i++ {
		off := 4 + 5*i
		if p[off] > 1 {
			return evs, fmt.Errorf("shardrpc: burst event %d has bad repair byte", i)
		}
		evs = append(evs, failure.Event{
			Repair: p[off] == 1,
			Edge:   graph.EdgeID(binary.LittleEndian.Uint32(p[off+1:])),
		})
	}
	return evs, nil
}

// --- query batches (hot) ---------------------------------------------------

// The hot codecs below hand encoding/binary exact-length windows
// (b[off:off+8]): one bounds check an access, as the compiler then proves
// the accessor's own.

// queryBatchSize is the frame size for n pairs; callers grow the buffer
// cold and fill it hot.
func queryBatchSize(n int) int { return 4 + 8*n }

// fillOwnedBatch encodes one worker's part of a shared burst: the pairs
// whose source mine marks (1, else 0), as a query batch, straight into b —
// pre-grown to queryBatchSize(len(pairs)) bytes, room for all of them — and
// returns how many that was; the frame is b[:queryBatchSize(n)]. Every
// pair is written and the cursor advances by the source's mark: no branch
// on ownership (the owners of a random burst are a coin flip), no
// allocation, no copy of the part.
//
//rbpc:hotpath
func fillOwnedBatch(b []byte, pairs []rbpc.Pair, mine []uint8) int {
	off := 4
	for _, pr := range pairs {
		binary.LittleEndian.PutUint64(b[off:off+8], uint64(uint32(pr.Src))|uint64(uint32(pr.Dst))<<32) // src then dst, as queryAt reads them
		off += 8 * int(mine[pr.Src])
	}
	n := (off - 4) / 8
	binary.LittleEndian.PutUint32(b, uint32(n))
	return n
}

// queryBatchCount validates a query-batch frame's framing and returns the
// pair count — the steady-state decode entry.
//
//rbpc:hotpath
func queryBatchCount(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p) != 4+8*n {
		return 0, false
	}
	return n, true
}

// queryAt reads pair i of a validated query batch.
//
//rbpc:hotpath
func queryAt(p []byte, i int) (src, dst uint32) {
	off := 4 + 8*i
	return binary.LittleEndian.Uint32(p[off : off+4]), binary.LittleEndian.Uint32(p[off+4 : off+8])
}

// --- answer batches (hot) --------------------------------------------------

// answerEntrySize: flags byte plus raw cost bits per answer.
const answerEntrySize = 9

func answerBatchSize(n int) int { return 4 + answerEntrySize*n }

// fillAnswerCount / fillAnswerAt write an answer batch into a pre-grown
// buffer of answerBatchSize(n) bytes.
//
//rbpc:hotpath
func fillAnswerCount(b []byte, n int) {
	binary.LittleEndian.PutUint32(b, uint32(n))
}

//rbpc:hotpath
func fillAnswerAt(b []byte, i int, flags byte, costBits uint64) {
	off := 4 + answerEntrySize*i
	b[off] = flags
	binary.LittleEndian.PutUint64(b[off+1:off+9], costBits)
}

//rbpc:hotpath
func answerBatchCount(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p) != 4+answerEntrySize*n {
		return 0, false
	}
	return n, true
}

// --- single query / full answer -------------------------------------------

// noEdge is the on-wire spelling of "no probe edge" in a query frame.
const noEdge = ^uint32(0)

// query is a synchronous single-pair query, a fixed-size frame (12 bytes):
// the pair and the probe edge the worker should walk its data plane
// against, noEdge when there is none.
type query struct {
	Src, Dst, Probe uint32
}

func newQuery(src, dst graph.NodeID, probe graph.EdgeID, hasProbe bool) query {
	q := query{Src: uint32(src), Dst: uint32(dst), Probe: noEdge}
	if hasProbe {
		q.Probe = uint32(probe)
	}
	return q
}

// Answer is a worker's full reply to a synchronous query: the serving
// epoch and failed-set it answered under, the route (nil when
// unroutable), and — when the query carried a probe edge — the worker's
// own data-plane verdict (the only process that can walk the shard's
// real MPLS network is the worker holding it).
type Answer struct {
	Epoch  uint64
	Failed []graph.EdgeID
	Route  *engine.Route
	// The verdict rides as three flag bits: Routable mirrors Route != nil;
	// FailedContains and Delivered are set only when the query carried a
	// probe edge (see probe.Verdict).
	probe.ProbeResult
}

func appendAnswer(buf []byte, a Answer) []byte {
	var fl byte
	if a.Route != nil {
		fl |= ansRoutable
	}
	if a.Delivered {
		fl |= ansDelivered
	}
	if a.FailedContains {
		fl |= ansFailedContains
	}
	buf = append(binary.LittleEndian.AppendUint64(buf, a.Epoch), fl)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Failed)))
	for _, e := range a.Failed {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	return engine.AppendRouteWire(buf, a.Route)
}

// decodeAnswer rebuilds an Answer, resolving the embedded route against
// the decoder's LSP table (same LSP identities as a decoded snapshot).
func decodeAnswer(p []byte, dec *engine.SnapDecoder) (Answer, error) {
	if len(p) < 13 {
		return Answer{}, fmt.Errorf("shardrpc: short answer frame")
	}
	var a Answer
	a.Epoch = binary.LittleEndian.Uint64(p)
	fl := p[8]
	if fl&^(ansRoutable|ansDelivered|ansFailedContains) != 0 {
		return Answer{}, fmt.Errorf("shardrpc: answer carries unknown flag bits %#x", fl)
	}
	a.Routable = fl&ansRoutable != 0
	a.Delivered = fl&ansDelivered != 0
	a.FailedContains = fl&ansFailedContains != 0
	n := int(binary.LittleEndian.Uint32(p[9:]))
	off := 13
	if n < 0 || off+4*n > len(p) {
		return Answer{}, fmt.Errorf("shardrpc: answer failed-set length %d implausible", n)
	}
	if n > 0 {
		a.Failed = make([]graph.EdgeID, n)
		for i := 0; i < n; i++ {
			e := graph.EdgeID(binary.LittleEndian.Uint32(p[off:]))
			if i > 0 && e <= a.Failed[i-1] {
				return Answer{}, fmt.Errorf("shardrpc: answer failed-set not strictly sorted")
			}
			a.Failed[i] = e
			off += 4
		}
	}
	rt, used, err := dec.DecodeRouteWire(p[off:])
	if err != nil {
		return Answer{}, err
	}
	if off+used != len(p) {
		return Answer{}, fmt.Errorf("shardrpc: %d trailing bytes after answer", len(p)-off-used)
	}
	if (rt != nil) != a.Routable {
		return Answer{}, fmt.Errorf("shardrpc: answer routable flag disagrees with route presence")
	}
	a.Route = rt
	return a, nil
}
