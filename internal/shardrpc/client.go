package shardrpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/engine/metrics"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
)

// callKind distinguishes pending-table entries: RPCs park a waiter on a
// channel; query batches are fire-and-forget at submit time and resolved
// by the reader as answers stream back.
type callKind int

const (
	callRPC callKind = iota
	callBatch
)

type call struct {
	kind callKind
	// RPC fields.
	done    chan struct{}
	want    byte
	payload []byte // copied reply payload
	flags   byte
	err     error
	// Batch fields.
	t0 time.Time
	n  int
}

// queryMetrics are the client-side serving counters of one worker:
// queries are counted where the answers land (remoteQuery and the reader
// goroutines), and latency is submit to answer arrival — transport
// included, which is the honest number for a cross-process deployment.
// Nothing on the worker's side of the wire counts a query, so Stats
// reports each exactly once.
type queryMetrics struct {
	queries    metrics.Counter
	unroutable metrics.Counter
	dropped    metrics.Counter
	latency    metrics.Histogram
}

// client drives one worker and is the socket implementation of
// shard.Worker: a control connection (bursts, barriers, stats; snapshot
// frames back) plus a pool of query connections, a pending table
// demultiplexing replies by sequence number, and the decoded replica
// snapshot the coordinator reads as the shard's current epoch. What it
// adds to the seam is everything a wire needs: encode/decode, timeouts
// and bounded retry, death detection with the alive flag, the in-flight
// budget, and health pings.
type client struct {
	idx  int
	cfg  Config
	dec  *engine.SnapDecoder
	want hello // what this worker must attach with, epoch aside (contract)
	// base and prim are the base set and the primary mask of this worker's
	// slice — the mask the worker's engine holds; the provision is known on
	// both ends, so AffectedPairs needs no frame.
	base *paths.Explicit
	prim []bool
	// mine[src] is 1 when this worker holds a materialized row for src — a
	// served source it owns — else 0: the mark the shared-burst encode
	// advances by (fillOwnedBatch).
	mine []uint8
	met  queryMetrics

	mu       sync.Mutex
	control  *Conn
	query    []*Conn
	pend     map[uint32]*call //rbpc:guardedby mu
	inflight int              //rbpc:guardedby mu
	gen      int              //rbpc:guardedby mu

	seq     atomic.Uint32
	next    atomic.Uint32
	alive   atomic.Bool
	replica atomic.Pointer[engine.Snapshot]
	// torn counts the checksum-failed frames this end has dropped, over
	// every connection the client has dialed.
	torn atomic.Int64
	done chan struct{} // closed by Close; stops the health loop
	// batchBuf is the reused query-batch encode buffer.
	bmu      sync.Mutex
	batchBuf []byte //rbpc:guardedby bmu
}

func newClient(idx int, cfg Config, p rbpc.Provision, owners shard.Owners, dec *engine.SnapDecoder, want hello) *client {
	slice := shard.SliceProvision(p, owners, idx)
	mine := make([]uint8, len(slice.Serves))
	for src, served := range slice.Serves {
		if served {
			mine[src] = 1
		}
	}
	c := &client{
		idx:  idx,
		cfg:  cfg,
		dec:  dec,
		want: want,
		base: p.Base,
		prim: slice.PrimaryMask(),
		mine: mine,
		pend: make(map[uint32]*call),
		done: make(chan struct{}),
	}
	if cfg.HealthEvery > 0 {
		go c.healthLoop()
	}
	return c
}

// healthLoop pings the worker on the configured cadence; a failed ping
// runs the full timeout/retry ladder inside rpc and marks the worker
// dead, which is what diverts its sources to the cold tier.
func (c *client) healthLoop() {
	t := time.NewTicker(c.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			if c.alive.Load() {
				c.ping()
			}
		}
	}
}

// errContract marks an attach the worker's hello refused: a worker built
// for another deployment, which no retry heals.
var errContract = errors.New("shard, shard count, topology and LSP table must all agree")

// maxAttachPause caps the pause between attach attempts, which starts at a
// millisecond and doubles.
const maxAttachPause = 100 * time.Millisecond

// attachWithin dials and attaches the worker inside the dial budget. Each
// handshake read waits for the worker until the budget's deadline, so a
// worker still provisioning behind a socket that already accepts (a
// Fleet's) costs exactly its provisioning time, and a hung one fails at the
// deadline. A dial or connection that fails is retried after a pause of at
// most maxAttachPause; a hello that breaks the contract fails at once.
func (c *client) attachWithin() error {
	deadline := time.Now().Add(c.cfg.DialBudget)
	pause := time.Millisecond
	for {
		err := c.attach(deadline)
		if err == nil || errors.Is(err, errContract) {
			return err
		}
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("shardrpc: worker %d: attach budget exhausted: %w", c.idx, err)
		}
		time.Sleep(min(pause, left))
		pause = min(2*pause, maxAttachPause)
	}
}

// attach dials the worker's control and query connections, validates the
// hello against the contract (shards, topology, LSP table), and waits for the
// priming snapshot before declaring the worker alive — so a caller
// returning from attach can immediately build whole views. Every read of
// the handshake gives up at deadline.
func (c *client) attach(deadline time.Time) error {
	control, h, err := c.dialOne(roleControl, deadline)
	if err != nil {
		return err
	}
	want := c.want
	want.Epoch = h.Epoch
	if h != want {
		control.Close()
		return fmt.Errorf("shardrpc: worker %d attaches as %+v, the coordinator expects %+v: %w", c.idx, h, want, errContract)
	}
	// The worker primes the replica right after the hello; read it
	// synchronously so the attach postcondition is a current replica.
	typ, _, _, payload, err := control.ReadFrame()
	if err != nil {
		control.Close()
		return err
	}
	if typ != ftSnapshot {
		control.Close()
		return fmt.Errorf("shardrpc: worker %d sent frame %d before priming snapshot", c.idx, typ)
	}
	snap, err := c.dec.Decode(payload)
	if err != nil {
		control.Close()
		return fmt.Errorf("shardrpc: worker %d priming snapshot: %w", c.idx, err)
	}

	pool := make([]*Conn, queryConns)
	for i := range pool {
		qc, _, err := c.dialOne(roleQuery, deadline)
		if err != nil {
			control.Close()
			for _, p := range pool[:i] {
				p.Close()
			}
			return err
		}
		pool[i] = qc
	}
	// The handshake is over: from here a connection waits as long as its
	// reader does, and AckTimeout bounds the RPCs on it.
	control.nc.SetDeadline(time.Time{})
	for _, qc := range pool {
		qc.nc.SetDeadline(time.Time{})
	}

	c.mu.Lock()
	c.control = control
	c.query = pool
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.storeReplica(snap)
	c.alive.Store(true)

	go c.reader(control, gen)
	for _, qc := range pool {
		go c.reader(qc, gen)
	}
	return nil
}

// dialOne opens and attaches one connection, returning the worker hello.
// The connection's deadline is left at deadline.
func (c *client) dialOne(role byte, deadline time.Time) (*Conn, hello, error) {
	nc, err := c.cfg.Dial(c.idx)
	if err != nil {
		return nil, hello{}, fmt.Errorf("shardrpc: dial worker %d: %w", c.idx, err)
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, hello{}, fmt.Errorf("shardrpc: worker %d: handshake deadline: %w", c.idx, err)
	}
	conn := newConn(nc, &c.torn)
	if role == roleControl && c.idx == 0 && c.cfg.Engine.Fault == engine.FaultTornFrame {
		armTornFrame(conn)
	}
	if err := conn.WriteFrame(ftAttach, role, 0, nil); err != nil {
		conn.Close()
		return nil, hello{}, err
	}
	typ, _, _, payload, err := conn.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, hello{}, err
	}
	if typ != ftHello {
		conn.Close()
		return nil, hello{}, fmt.Errorf("shardrpc: worker %d replied frame %d to attach", c.idx, typ)
	}
	var h hello
	if err := decodeFixed(payload, &h); err != nil {
		conn.Close()
		return nil, hello{}, err
	}
	return conn, h, nil
}

// armTornFrame installs the write-side chaos fault: the next burst frame
// leaving this connection is corrupted after its checksum is computed, so
// the worker's Conn drops it as torn and silently misses the churn — the
// divergence the conformance oracle must catch at the next flush.
func armTornFrame(conn *Conn) {
	fired := false
	conn.corrupt = func(typ byte, payload []byte) {
		if fired || typ != ftBurst || len(payload) == 0 {
			return
		}
		fired = true
		payload[len(payload)-1] ^= 0xff
	}
}

// storeReplica publishes a decoded snapshot, refusing epoch regressions
// (a tap frame can race the attach priming frame; newest wins).
func (c *client) storeReplica(snap *engine.Snapshot) {
	for {
		cur := c.replica.Load()
		if cur != nil && cur.Epoch() > snap.Epoch() {
			return
		}
		if c.replica.CompareAndSwap(cur, snap) {
			break
		}
	}
	if c.cfg.OnEpoch != nil {
		c.cfg.OnEpoch(c.idx, snap)
	}
}

// reader drains one connection, demultiplexing by sequence number:
// snapshot frames update the replica, answer batches settle into the
// serving metrics, everything else resolves a parked RPC.
func (c *client) reader(conn *Conn, gen int) {
	key := uint64(c.idx)
	for {
		typ, flags, seq, payload, err := conn.ReadFrame()
		if err != nil {
			c.die(gen, err)
			return
		}
		switch typ {
		case ftSnapshot:
			snap, derr := c.dec.Decode(payload)
			if derr != nil {
				c.die(gen, fmt.Errorf("shardrpc: worker %d snapshot: %w", c.idx, derr))
				return
			}
			c.storeReplica(snap)
		case ftAnswerBatch:
			n, ok := answerBatchCount(payload)
			if !ok {
				c.die(gen, fmt.Errorf("shardrpc: worker %d sent malformed answer batch", c.idx))
				return
			}
			ca := c.take(seq)
			if ca == nil || ca.kind != callBatch {
				continue // late answer after a timeout/death; already accounted
			}
			c.settleBatch(key, ca, payload, n)
		default:
			ca := c.take(seq)
			if ca == nil || ca.kind != callRPC {
				continue
			}
			if typ != ca.want {
				ca.err = fmt.Errorf("shardrpc: worker %d replied frame %d, want %d", c.idx, typ, ca.want)
			} else {
				ca.payload = append(ca.payload[:0], payload...)
				ca.flags = flags
			}
			close(ca.done)
		}
	}
}

// settleBatch folds one answer batch into the coordinator metrics: the
// whole batch records one arrival latency (RecordN) and the per-answer
// scan is a hot fixed-offset walk.
func (c *client) settleBatch(key uint64, ca *call, payload []byte, n int) {
	if n > ca.n {
		n = ca.n // defensive: never credit more answers than were asked
	}
	unroutable := scanUnroutable(payload, n)
	c.met.queries.Add(key, int64(n))
	c.met.unroutable.Add(key, unroutable)
	if d := time.Since(ca.t0); n > 0 {
		c.met.latency.RecordN(key, d, int64(n))
	}
	if short := int64(ca.n - n); short > 0 {
		c.met.dropped.Add(key, short)
	}
}

// scanUnroutable counts the batch's unroutable answers — the hot half of
// answer decoding: one flags byte per answer, added up without a branch
// (which answers are unroutable is the network's business, not a pattern).
//
//rbpc:hotpath
func scanUnroutable(payload []byte, n int) int64 {
	var routable int64
	for off := 4; off < 4+answerEntrySize*n; off += answerEntrySize {
		routable += int64(payload[off] & ansRoutable) // the entry's flags byte
	}
	return int64(n) - routable
}

// take removes and returns the pending entry for seq (nil if unknown),
// decrementing the in-flight budget for batch entries.
func (c *client) take(seq uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	ca := c.pend[seq]
	if ca != nil {
		delete(c.pend, seq)
		if ca.kind == callBatch {
			c.inflight--
		}
	}
	return ca
}

// die marks the worker dead and fails everything pending. The generation
// guard keeps a stale reader (from before a reattach) from killing the
// fresh connections.
func (c *client) die(gen int, cause error) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	c.alive.Store(false)
	control, pool := c.control, c.query
	c.control, c.query = nil, nil
	pend := c.pend
	c.pend = make(map[uint32]*call)
	c.inflight = 0
	c.mu.Unlock()

	if control != nil {
		control.Close()
	}
	for _, qc := range pool {
		qc.Close()
	}
	key := uint64(c.idx)
	for _, ca := range pend {
		switch ca.kind {
		case callRPC:
			ca.err = fmt.Errorf("shardrpc: worker %d died: %w", c.idx, cause)
			close(ca.done)
		case callBatch:
			c.met.dropped.Add(key, int64(ca.n))
		}
	}
}

// controlConn returns the live control connection (nil when dead).
func (c *client) controlConn() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.control
}

// queryConn picks the next pool connection round-robin.
func (c *client) queryConn() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.query) == 0 {
		return nil
	}
	return c.query[int(c.next.Add(1))%len(c.query)]
}

// rpc performs one round trip on conn with AckTimeout and bounded retry;
// exhausting the budget declares the worker dead. Retries are safe for
// every frame on this wire: bursts are idempotent at the engine (failing
// a failed edge and repairing a repaired one are no-ops) and the rest are
// reads or barriers.
func (c *client) rpc(conn *Conn, typ, flags byte, payload []byte, want byte) (*call, error) {
	if conn == nil {
		return nil, fmt.Errorf("shardrpc: worker %d is down", c.idx)
	}
	var lastErr error
	for attempt := 0; attempt <= rpcRetries; attempt++ {
		seq := c.seq.Add(1)
		ca := &call{kind: callRPC, done: make(chan struct{}), want: want}
		c.mu.Lock()
		c.pend[seq] = ca
		c.mu.Unlock()
		if err := conn.WriteFrame(typ, flags, seq, payload); err != nil {
			c.take(seq)
			c.die(c.generation(), err)
			return nil, err
		}
		select {
		case <-ca.done:
			if ca.err != nil {
				return nil, ca.err
			}
			return ca, nil
		case <-time.After(c.cfg.AckTimeout):
			c.take(seq)
			lastErr = fmt.Errorf("shardrpc: worker %d: frame %d timed out after %v", c.idx, typ, c.cfg.AckTimeout)
		}
	}
	c.die(c.generation(), lastErr)
	return nil, lastErr
}

func (c *client) generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// sendBatch encodes this worker's part of a shared burst — owned of its
// pairs — straight into the reused frame buffer, writes the frame and
// registers its pending entry; answers settle asynchronously in the
// reader. Returns false when the worker is dead, the in-flight budget is
// exhausted, or the write fails — the caller accounts the part as dropped.
func (c *client) sendBatch(pairs []rbpc.Pair, owned int) bool {
	conn := c.queryConn()
	if conn == nil {
		return false
	}
	seq := c.seq.Add(1)
	ca := &call{kind: callBatch, t0: time.Now(), n: owned}
	c.mu.Lock()
	if c.inflight >= maxInflight {
		c.mu.Unlock()
		return false
	}
	c.inflight++
	c.pend[seq] = ca
	c.mu.Unlock()

	c.bmu.Lock()
	c.batchBuf = grow(c.batchBuf, queryBatchSize(len(pairs)))
	n := fillOwnedBatch(c.batchBuf, pairs, c.mine)
	err := conn.WriteFrame(ftQueryBatch, 0, seq, c.batchBuf[:queryBatchSize(n)])
	c.bmu.Unlock()
	if err != nil {
		c.take(seq) // remove before die so the batch is not also counted there
		c.die(c.generation(), err)
		return false
	}
	return true
}

// remoteQuery performs one synchronous single-pair query (optionally with
// a probe edge), decodes the full answer, and counts it: this is where
// the answer of every synchronous query lands.
func (c *client) remoteQuery(src, dst graph.NodeID, ed graph.EdgeID, hasProbe bool) (Answer, error) {
	t0 := time.Now()
	ca, err := c.rpc(c.queryConn(), ftQuery, 0, appendFixed(nil, newQuery(src, dst, ed, hasProbe)), ftAnswer)
	if err != nil {
		return Answer{}, err
	}
	ans, err := decodeAnswer(ca.payload, c.dec)
	if err != nil {
		return Answer{}, err
	}
	key := uint64(c.idx)
	c.met.queries.Add(key, 1)
	c.met.latency.Record(key, time.Since(t0))
	if ans.Route == nil && src != dst {
		c.met.unroutable.Add(key, 1)
	}
	return ans, nil
}

// burst ships one encoded churn burst. The ack is awaited asynchronously
// — the pending entry resolves when the worker confirms, and only a write
// failure (dead transport) surfaces here; ordering against the following
// flush is the control connection's FIFO.
func (c *client) burst(payload []byte) error {
	conn := c.controlConn()
	if conn == nil {
		return fmt.Errorf("shardrpc: worker %d is down", c.idx)
	}
	seq := c.seq.Add(1)
	ca := &call{kind: callRPC, done: make(chan struct{}), want: ftBurstAck}
	c.mu.Lock()
	c.pend[seq] = ca
	c.mu.Unlock()
	go func() {
		select {
		case <-ca.done:
		case <-time.After(c.cfg.AckTimeout * (rpcRetries + 1)):
			if c.take(seq) != nil {
				c.die(c.generation(), fmt.Errorf("shardrpc: worker %d never acked burst", c.idx))
			}
		}
	}()
	if err := conn.WriteFrame(ftBurst, 0, seq, payload); err != nil {
		c.die(c.generation(), err)
		return err
	}
	return nil
}

// flush runs the barrier RPC and returns the worker's post-barrier epoch.
func (c *client) flush() (uint64, error) {
	ca, err := c.rpc(c.controlConn(), ftFlush, 0, nil, ftFlushAck)
	if err != nil {
		return 0, err
	}
	var epoch uint64
	if err := decodeFixed(ca.payload, &epoch); err != nil {
		return 0, fmt.Errorf("shardrpc: worker %d flush ack: %w", c.idx, err)
	}
	return epoch, nil
}

// ping is the health check; the pong carries the count of torn frames
// the worker's end of the wire has dropped (0 when the ping fails).
func (c *client) ping() int64 {
	var torn int64
	if ca, err := c.rpc(c.controlConn(), ftPing, 0, nil, ftPong); err == nil {
		_ = decodeFixed(ca.payload, &torn) // a pong of the wrong size reads 0, as a failed ping does
	}
	return torn
}

// --- shard.Worker -----------------------------------------------------------

// Apply ships the burst as one frame; a dead worker misses it and is
// resynced from the coordinator's model on Reattach.
func (c *client) Apply(evs []failure.Event) {
	if c.alive.Load() {
		c.burst(appendBurst(nil, evs))
	}
}

// Flush is the cross-process barrier: the worker runs its engine flush
// and acks with its post-barrier epoch; because its snapshot frames
// precede the ack on the same connection, returning means the replica
// reflects every burst sent before the call.
func (c *client) Flush() {
	if c.alive.Load() {
		c.flush()
	}
}

// Query is one round trip on a pool connection. ok is false when the
// worker is down or died mid-query.
func (c *client) Query(src, dst graph.NodeID) (engine.Result, bool) {
	if !c.alive.Load() {
		return engine.Result{}, false
	}
	ans, err := c.remoteQuery(src, dst, 0, false)
	if err != nil {
		return engine.Result{}, false
	}
	return engine.Result{Src: src, Dst: dst, Route: ans.Route, Snap: c.snapFor(ans)}, true
}

// snapFor resolves the snapshot to attach to a query result: the decoded
// replica when it matches the answering epoch, else a detached snapshot
// of the answer's failed-set (the replica frame may still be in flight).
func (c *client) snapFor(ans Answer) *engine.Snapshot {
	if rep := c.replica.Load(); rep.Epoch() == ans.Epoch {
		return rep
	}
	return c.dec.Detached(ans.Failed, ans.Epoch)
}

// Probe ships the probe edge with the query: only the worker can walk
// the shard's data plane, so the whole verdict comes back on the wire.
func (c *client) Probe(src, dst graph.NodeID, ed graph.EdgeID) (probe.ProbeResult, bool) {
	if !c.alive.Load() {
		return probe.ProbeResult{}, false
	}
	ans, err := c.remoteQuery(src, dst, ed, true)
	return ans.ProbeResult, err == nil
}

// SubmitBatch ships this worker's part of the burst as one frame; the part
// is shed whole when the worker is down, the in-flight budget is spent, or
// the write fails.
func (c *client) SubmitBatch(pairs []rbpc.Pair, owned int) int {
	if c.sendBatch(pairs, owned) {
		return owned
	}
	c.met.dropped.Add(uint64(c.idx), int64(owned))
	return 0
}

func (c *client) AffectedPairs(ed graph.EdgeID) []graph.NodePair {
	return rbpc.AffectedPairs(c.base, c.prim, ed)
}

// Snapshot is the latest decoded replica (non-nil once attached; a dead
// worker keeps its last one).
func (c *client) Snapshot() *engine.Snapshot { return c.replica.Load() }

func (c *client) Alive() bool { return c.alive.Load() }

// Drain settles the worker's queues, then waits for the answer batches
// still crossing the wire (the worker has served them — drain acked —
// but the frames may not have landed). Batches pending on a worker that
// dies are accounted dropped by the death path.
func (c *client) Drain() {
	if c.alive.Load() {
		c.rpc(c.controlConn(), ftDrain, 0, nil, ftDrainAck)
	}
	for deadline := time.Now().Add(c.cfg.AckTimeout); time.Now().Before(deadline); {
		c.mu.Lock()
		busy := c.inflight > 0
		c.mu.Unlock()
		if !busy {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Stats scrapes the worker's engine over the wire (zeros while it is
// down) and adds the serving counters kept on this side of it.
func (c *client) Stats() engine.Stats {
	var st engine.Stats
	if c.alive.Load() {
		if ca, err := c.rpc(c.controlConn(), ftStats, 0, nil, ftStatsAck); err == nil {
			// A frame of the wrong size leaves st zero, as a dead worker's is.
			_ = decodeFixed(ca.payload, &st)
		}
	}
	st.Queries += c.met.queries.Load()
	st.Unroutable += c.met.unroutable.Load()
	st.Dropped += c.met.dropped.Load()
	if s := c.met.latency.Summarize(); s.Count > 0 {
		st.QueryLatency = s
	}
	return st
}

// Close tears the connections down (coordinator shutdown, not a worker
// death). Worker processes are owned by the supervisor, not the client.
func (c *client) Close() {
	close(c.done)
	c.die(c.generation(), fmt.Errorf("shardrpc: coordinator closed"))
}
