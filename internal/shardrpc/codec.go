package shardrpc

import (
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
)

// noEdge is the on-wire spelling of "no probe edge" in ftQuery frames.
const noEdge = ^uint32(0)

// --- hello -----------------------------------------------------------------

// hello is the worker's side of the attach handshake: the ownership
// contract (shard index and shard count: the worker serves the sources
// equal to shard mod shards), the topology fingerprint (orders must match
// or decoded node/edge IDs would mean different things), the LSP table's
// length and digest (registryDigest: decoded LSP IDs likewise) and the
// worker's current epoch.
type hello struct {
	shard  uint32
	shards uint32
	nodes  uint32
	links  uint32
	lsps   uint32
	lspSum uint32
	epoch  uint64
}

const helloSize = 4 + 4 + 4 + 4 + 4 + 4 + 8

// contract is the hello of shard idx as a process computes it from its own
// provision, epoch aside: the worker sends it, the coordinator expects it.
func contract(p rbpc.Provision, cfg Config, idx int) hello {
	return hello{
		shard:  uint32(idx),
		shards: uint32(cfg.Shards),
		nodes:  uint32(p.Graph.Order()),
		links:  uint32(p.Graph.Size()),
		lsps:   uint32(len(p.BaseLSPs)),
		lspSum: registryDigest(p.BaseLSPs),
	}
}

// registryDigest is the CRC-32C of a provision's LSP table in order: each
// LSP's ID, hop count, nodes and links. Two processes whose digests (and
// table lengths) agree resolve every LSP ID on the wire to the same path.
func registryDigest(lsps []*mpls.LSP) uint32 {
	var sum uint32
	var buf []byte
	for _, l := range lsps {
		buf = appendU32(buf[:0], uint32(l.ID))
		buf = appendU32(buf, uint32(len(l.Path.Edges)))
		for _, v := range l.Path.Nodes {
			buf = appendU32(buf, uint32(v))
		}
		for _, e := range l.Path.Edges {
			buf = appendU32(buf, uint32(e))
		}
		sum = crc32.Update(sum, castagnoli, buf)
	}
	return sum
}

func appendHello(buf []byte, h hello) []byte {
	off := len(buf)
	buf = grow0(buf, off+helloSize)
	putU32(buf, off, h.shard)
	putU32(buf, off+4, h.shards)
	putU32(buf, off+8, h.nodes)
	putU32(buf, off+12, h.links)
	putU32(buf, off+16, h.lsps)
	putU32(buf, off+20, h.lspSum)
	putU64(buf, off+24, h.epoch)
	return buf
}

func decodeHello(p []byte) (hello, error) {
	if len(p) != helloSize {
		return hello{}, fmt.Errorf("shardrpc: hello frame is %d bytes, want %d", len(p), helloSize)
	}
	return hello{
		shard:  getU32(p, 0),
		shards: getU32(p, 4),
		nodes:  getU32(p, 8),
		links:  getU32(p, 12),
		lsps:   getU32(p, 16),
		lspSum: getU32(p, 20),
		epoch:  getU64(p, 24),
	}, nil
}

// --- bursts ----------------------------------------------------------------

// appendBurst encodes a fail/repair event burst: count, then one
// (repair, edge) record per event.
func appendBurst(buf []byte, evs []failure.Event) []byte {
	off := len(buf)
	buf = grow0(buf, off+4+5*len(evs))
	putU32(buf, off, uint32(len(evs)))
	off += 4
	for _, ev := range evs {
		if ev.Repair {
			buf[off] = 1
		} else {
			buf[off] = 0
		}
		putU32(buf, off+1, uint32(ev.Edge))
		off += 5
	}
	return buf
}

// decodeBurst appends the frame's events onto evs (reused across frames).
func decodeBurst(p []byte, evs []failure.Event) ([]failure.Event, error) {
	if len(p) < 4 {
		return evs, fmt.Errorf("shardrpc: short burst frame")
	}
	n := int(getU32(p, 0))
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
			Edge:   graph.EdgeID(getU32(p, off+1)),
		})
	}
	return evs, nil
}

// --- query batches (hot) ---------------------------------------------------

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
		putU64(b, off, uint64(uint32(pr.Src))|uint64(uint32(pr.Dst))<<32) // src then dst, as queryAt reads them
		off += 8 * int(mine[pr.Src])
	}
	n := (off - 4) / 8
	putU32(b, 0, uint32(n))
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
	n := int(getU32(p, 0))
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
	return getU32(p, off), getU32(p, off+4)
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
	putU32(b, 0, uint32(n))
}

//rbpc:hotpath
func fillAnswerAt(b []byte, i int, flags byte, costBits uint64) {
	off := 4 + answerEntrySize*i
	b[off] = flags
	putU64(b, off+1, costBits)
}

//rbpc:hotpath
func answerBatchCount(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	n := int(getU32(p, 0))
	if n < 0 || len(p) != 4+answerEntrySize*n {
		return 0, false
	}
	return n, true
}

// --- single query / full answer -------------------------------------------

// appendQuery encodes a synchronous single-pair query, optionally
// carrying the probe edge the worker should walk its data plane against.
func appendQuery(buf []byte, src, dst graph.NodeID, probe graph.EdgeID, hasProbe bool) []byte {
	off := len(buf)
	buf = grow0(buf, off+12)
	putU32(buf, off, uint32(src))
	putU32(buf, off+4, uint32(dst))
	if hasProbe {
		putU32(buf, off+8, uint32(probe))
	} else {
		putU32(buf, off+8, noEdge)
	}
	return buf
}

func decodeQuery(p []byte) (src, dst graph.NodeID, probe graph.EdgeID, hasProbe bool, err error) {
	if len(p) != 12 {
		return 0, 0, 0, false, fmt.Errorf("shardrpc: query frame is %d bytes, want 12", len(p))
	}
	pe := getU32(p, 8)
	return graph.NodeID(getU32(p, 0)), graph.NodeID(getU32(p, 4)),
		graph.EdgeID(pe), pe != noEdge, nil
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
	off := len(buf)
	buf = grow0(buf, off+13)
	putU64(buf, off, a.Epoch)
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
	buf[off+8] = fl
	putU32(buf, off+9, uint32(len(a.Failed)))
	for _, e := range a.Failed {
		buf = appendU32(buf, uint32(e))
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
	a.Epoch = getU64(p, 0)
	fl := p[8]
	if fl&^(ansRoutable|ansDelivered|ansFailedContains) != 0 {
		return Answer{}, fmt.Errorf("shardrpc: answer carries unknown flag bits %#x", fl)
	}
	a.Routable = fl&ansRoutable != 0
	a.Delivered = fl&ansDelivered != 0
	a.FailedContains = fl&ansFailedContains != 0
	n := int(getU32(p, 9))
	off := 13
	if n < 0 || off+4*n > len(p) {
		return Answer{}, fmt.Errorf("shardrpc: answer failed-set length %d implausible", n)
	}
	if n > 0 {
		a.Failed = make([]graph.EdgeID, n)
		for i := 0; i < n; i++ {
			e := graph.EdgeID(getU32(p, off))
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

// --- stats -----------------------------------------------------------------

// appendStats encodes engine.Stats field by field in declaration order —
// hand-rolled like everything else on this wire, so adding an engine
// stat is a compile-visible two-line change here.
func appendStats(buf []byte, st engine.Stats) []byte {
	buf = appendU64(buf, st.Epoch)
	buf = appendI64(buf, int64(st.SnapshotAge))
	buf = appendI64(buf, st.Queries)
	buf = appendI64(buf, st.Unroutable)
	buf = appendI64(buf, st.Submitted)
	buf = appendI64(buf, st.Dropped)
	buf = appendI64(buf, int64(st.QueueDepth))
	buf = appendI64(buf, st.Epochs)
	buf = appendI64(buf, st.PlanCacheHits)
	buf = appendI64(buf, st.PlanCacheMiss)
	buf = appendI64(buf, st.RowBytes)
	buf = appendI64(buf, st.DenseRowBytes)
	buf = appendSummary(buf, st.QueryLatency)
	buf = appendSummary(buf, st.EpochBuild)
	buf = appendIncremental(buf, st.Incremental)
	buf = append(buf, byte(st.Scheme))
	buf = appendSummary(buf, st.Restore)
	buf = appendSummary(buf, st.LocalBuild)
	buf = appendAcc(buf, st.Stretch)
	buf = appendAcc(buf, st.DetourHops)
	buf = appendI64(buf, st.LocalPairs)
	buf = appendI64(buf, st.LocalUnrestorable)
	buf = appendI64(buf, st.Converged)
	return buf
}

func decodeStats(p []byte) (engine.Stats, error) {
	c := cursor{data: p}
	var st engine.Stats
	st.Epoch = c.u64()
	st.SnapshotAge = time.Duration(c.i64())
	st.Queries = c.i64()
	st.Unroutable = c.i64()
	st.Submitted = c.i64()
	st.Dropped = c.i64()
	st.QueueDepth = int(c.i64())
	st.Epochs = c.i64()
	st.PlanCacheHits = c.i64()
	st.PlanCacheMiss = c.i64()
	st.RowBytes = c.i64()
	st.DenseRowBytes = c.i64()
	st.QueryLatency = c.summary()
	st.EpochBuild = c.summary()
	st.Incremental = c.incremental()
	st.Scheme = engine.Scheme(c.u8())
	st.Restore = c.summary()
	st.LocalBuild = c.summary()
	st.Stretch = c.acc()
	st.DetourHops = c.acc()
	st.LocalPairs = c.i64()
	st.LocalUnrestorable = c.i64()
	st.Converged = c.i64()
	if c.err || c.off != len(p) {
		return engine.Stats{}, fmt.Errorf("shardrpc: malformed stats frame")
	}
	return st, nil
}

func appendSummary(buf []byte, s metrics.Summary) []byte {
	buf = appendI64(buf, s.Count)
	buf = appendI64(buf, int64(s.P50))
	buf = appendI64(buf, int64(s.P90))
	buf = appendI64(buf, int64(s.P99))
	buf = appendI64(buf, int64(s.Max))
	return buf
}

func appendAcc(buf []byte, a metrics.AccSummary) []byte {
	buf = appendI64(buf, a.Count)
	buf = appendU64(buf, math.Float64bits(a.Mean))
	buf = appendI64(buf, a.Max)
	return buf
}

func appendIncremental(buf []byte, in engine.IncrementalStats) []byte {
	buf = appendI64(buf, in.PairsReused)
	buf = appendI64(buf, in.PairsRecomputed)
	buf = appendI64(buf, in.Entering)
	buf = appendI64(buf, in.Leaving)
	buf = appendI64(buf, in.StaleRoutes)
	buf = appendI64(buf, in.RepairImproved)
	buf = appendI64(buf, in.FullRebuilds)
	buf = appendI64(buf, in.AffectedNanos)
	buf = appendI64(buf, in.SolveNanos)
	buf = appendI64(buf, in.ResolveNanos)
	buf = appendI64(buf, in.AssembleNanos)
	return buf
}

// cursor is the bounds-checked reader for cold decode paths.
type cursor struct {
	data []byte
	off  int
	err  bool
}

func (c *cursor) u8() byte {
	if c.off+1 > len(c.data) {
		c.err = true
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

func (c *cursor) u64() uint64 {
	if c.off+8 > len(c.data) {
		c.err = true
		return 0
	}
	v := getU64(c.data, c.off)
	c.off += 8
	return v
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) summary() metrics.Summary {
	return metrics.Summary{
		Count: c.i64(),
		P50:   time.Duration(c.i64()),
		P90:   time.Duration(c.i64()),
		P99:   time.Duration(c.i64()),
		Max:   time.Duration(c.i64()),
	}
}

func (c *cursor) acc() metrics.AccSummary {
	return metrics.AccSummary{
		Count: c.i64(),
		Mean:  math.Float64frombits(c.u64()),
		Max:   c.i64(),
	}
}

func (c *cursor) incremental() engine.IncrementalStats {
	return engine.IncrementalStats{
		PairsReused:     c.i64(),
		PairsRecomputed: c.i64(),
		Entering:        c.i64(),
		Leaving:         c.i64(),
		StaleRoutes:     c.i64(),
		RepairImproved:  c.i64(),
		FullRebuilds:    c.i64(),
		AffectedNanos:   c.i64(),
		SolveNanos:      c.i64(),
		ResolveNanos:    c.i64(),
		AssembleNanos:   c.i64(),
	}
}

// grow0 extends buf to n bytes preserving contents (append-style, cold).
func grow0(buf []byte, n int) []byte {
	for len(buf) < n {
		buf = append(buf, 0)
	}
	return buf[:n]
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(buf []byte, v int64) []byte { return appendU64(buf, uint64(v)) }
