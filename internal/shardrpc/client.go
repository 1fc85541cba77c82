package shardrpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
)

// call is one RPC parked on the pending table until its reply (or the
// worker's death) resolves it.
type call struct {
	done    chan struct{}
	want    byte
	payload []byte // copied reply payload
	err     error
}

// client drives one worker and is the socket implementation of
// shard.Worker: one connection (bursts, barriers, stats out; snapshot
// frames and acks back), a pending table demultiplexing replies by
// sequence number, and the decoded replica snapshot the coordinator reads
// as the shard's current epoch. Queries never reach the worker: the
// client answers them from the replica through its own engine.Pool. What
// it adds to the seam is everything a wire needs: encode/decode, timeouts
// and bounded retry, death detection with the alive flag, and health
// pings.
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
	// pool answers this worker's sources off replica, and counts them.
	pool *engine.Pool

	mu      sync.Mutex
	control *Conn
	pend    map[uint32]*call //rbpc:guardedby mu
	gen     int              //rbpc:guardedby mu

	seq     atomic.Uint32
	alive   atomic.Bool
	replica atomic.Pointer[engine.Snapshot]
	// torn counts the checksum-failed frames this end has dropped, over
	// every connection the client has dialed.
	torn atomic.Int64
	done chan struct{} // closed by Close; stops the health loop
}

func newClient(idx int, cfg Config, p rbpc.Provision, owners shard.Owners, dec *engine.SnapDecoder, want hello) *client {
	slice := shard.SliceProvision(p, owners, idx)
	c := &client{
		idx:  idx,
		cfg:  cfg,
		dec:  dec,
		want: want,
		base: p.Base,
		prim: slice.PrimaryMask(),
		pend: make(map[uint32]*call),
		done: make(chan struct{}),
	}
	c.pool = engine.NewPool(&c.replica, slice.Serves, cfg.Engine)
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

// attach dials the worker's connection, validates the hello against the
// contract (shards, topology, LSP table), and waits for the priming
// snapshot — so the replica is current when attach returns. The worker is
// not yet alive: the caller admits it once it is in sync with the
// coordinator's failed set. Every read of the handshake gives up at
// deadline.
func (c *client) attach(deadline time.Time) error {
	control, h, err := c.dial(deadline)
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
	// The handshake is over: from here the connection waits as long as its
	// reader does, and AckTimeout bounds the RPCs on it.
	control.nc.SetDeadline(time.Time{})

	c.mu.Lock()
	c.control = control
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.storeReplica(gen, snap)

	go c.reader(control, gen)
	return nil
}

// admit declares an attached worker alive, so its sources leave the cold
// tier, unless its connection has died since.
func (c *client) admit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive.Store(c.control != nil)
}

// dial opens and attaches the worker's connection, returning the worker
// hello. The connection's deadline is left at deadline.
func (c *client) dial(deadline time.Time) (*Conn, hello, error) {
	nc, err := c.cfg.Dial(c.idx)
	if err != nil {
		return nil, hello{}, fmt.Errorf("shardrpc: dial worker %d: %w", c.idx, err)
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, hello{}, fmt.Errorf("shardrpc: worker %d: handshake deadline: %w", c.idx, err)
	}
	conn := newConn(nc, &c.torn)
	if c.idx == 0 && c.cfg.Engine.Fault == engine.FaultTornFrame {
		armTornFrame(conn)
	}
	if err := conn.WriteFrame(ftAttach, 0, 0, nil); err != nil {
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

// storeReplica publishes a snapshot decoded off the connection of
// generation gen. One connection delivers its worker's epochs in order,
// and each connection starts a new epoch line — a respawned worker's
// engine counts again from 0 — so the priming snapshot replaces the
// replica whatever its epoch, and only a frame a stale reader decoded
// after its connection was replaced is dropped.
func (c *client) storeReplica(gen int, snap *engine.Snapshot) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	c.replica.Store(snap)
	c.mu.Unlock()
	if c.cfg.OnEpoch != nil {
		c.cfg.OnEpoch(c.idx, snap)
	}
}

// reader drains the connection, demultiplexing by sequence number:
// snapshot frames update the replica, everything else resolves a parked
// RPC.
func (c *client) reader(conn *Conn, gen int) {
	for {
		typ, _, seq, payload, err := conn.ReadFrame()
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
			c.storeReplica(gen, snap)
		default:
			ca := c.take(seq)
			if ca == nil {
				continue // late reply after a timeout
			}
			if typ != ca.want {
				ca.err = fmt.Errorf("shardrpc: worker %d replied frame %d, want %d", c.idx, typ, ca.want)
			} else {
				ca.payload = append(ca.payload[:0], payload...)
			}
			close(ca.done)
		}
	}
}

// take removes and returns the pending entry for seq (nil if unknown).
func (c *client) take(seq uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	ca := c.pend[seq]
	delete(c.pend, seq)
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
	control := c.control
	c.control = nil
	pend := c.pend
	c.pend = make(map[uint32]*call)
	c.mu.Unlock()

	if control != nil {
		control.Close()
	}
	for _, ca := range pend {
		ca.err = fmt.Errorf("shardrpc: worker %d died: %w", c.idx, cause)
		close(ca.done)
	}
}

// controlConn returns the live control connection (nil when dead).
func (c *client) controlConn() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.control
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
		ca := &call{done: make(chan struct{}), want: want}
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
	ca := &call{done: make(chan struct{}), want: ftBurstAck}
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

// Apply ships the burst as one frame whenever the connection is up — also
// while a reattached worker resyncs, so no burst falls between the
// replayed failed set and its admission; a dead worker misses it and is
// resynced from the coordinator's model on Reattach.
func (c *client) Apply(evs []failure.Event) {
	if c.controlConn() != nil {
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

// Query answers from the replica (engine.Pool.Query). ok is false when the
// worker is down: its sources then divert to the cold tier.
func (c *client) Query(src, dst graph.NodeID) (engine.Result, bool) {
	if !c.alive.Load() {
		return engine.Result{}, false
	}
	return c.pool.Query(src, dst), true
}

// SubmitBatch hands this worker's part of the burst to the client's pool,
// which answers it from the replica; the part is shed whole when the pool's
// queue is full.
//
//rbpc:hotpath
func (c *client) SubmitBatch(pairs []rbpc.Pair, owned int) int {
	return c.pool.SubmitOwned(pairs, owned)
}

func (c *client) AffectedPairs(ed graph.EdgeID) []graph.NodePair {
	return rbpc.AffectedPairs(c.base, c.prim, ed)
}

// Snapshot is the latest decoded replica (non-nil once attached; a dead
// worker keeps its last one).
func (c *client) Snapshot() *engine.Snapshot { return c.replica.Load() }

func (c *client) Alive() bool { return c.alive.Load() }

// Drain blocks until every query the client's pool accepted before the call
// is answered.
func (c *client) Drain() { c.pool.Drain() }

// Stats scrapes the worker's engine over the wire (zeros while it is
// down) and sets the serving counters to the pool's: every query is
// answered, and counted, on this side of the wire.
func (c *client) Stats() engine.Stats {
	var st engine.Stats
	if c.alive.Load() {
		if ca, err := c.rpc(c.controlConn(), ftStats, 0, nil, ftStatsAck); err == nil {
			// A frame of the wrong size leaves st zero, as a dead worker's is.
			_ = decodeFixed(ca.payload, &st)
		}
	}
	c.pool.Scrape(&st)
	return st
}

// Close tears the connection down (coordinator shutdown, not a worker
// death) and stops the pool. Worker processes are owned by the supervisor,
// not the client.
func (c *client) Close() {
	close(c.done)
	c.die(c.generation(), fmt.Errorf("shardrpc: coordinator closed"))
	c.pool.Close()
}
