package shardrpc

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/probe"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
)

// Worker serves one shard of the pair space out of its own process: the
// same engine over the same shard.SliceProvision slice the
// in-process coordinator would build, fronted by the wire protocol. One
// control connection carries bursts, barriers, and stats, and returns
// every published epoch as an overlay snapshot frame; query connections
// serve batches straight off the engine's current snapshot, each on its
// own goroutine (the pool the coordinator dials is the worker's
// parallelism).
type Worker struct {
	idx int
	g   *graph.Graph
	eng *engine.Engine

	// control is the connection the epoch tap pushes snapshot frames to;
	// replaced on (re)attach.
	control atomic.Pointer[Conn]
	// snapMu serializes snapshot encoding: the tap runs on the engine's
	// writer goroutine, the attach handshake on a connection goroutine,
	// and both share snapBuf.
	snapMu  sync.Mutex
	snapBuf []byte //rbpc:guardedby snapMu
	// torn counts the frames this worker's connections have dropped; the
	// pong reports it, which is how the coordinator's Torn() sees a frame
	// that was lost on the way in.
	torn atomic.Int64

	contract hello // what this worker answers an attach with, epoch aside
}

// NewWorker builds the worker for shard idx of the deployment described
// by cfg, slicing the full provision exactly the way shard.New does —
// bit-identical engines are the whole point. The provision must be the
// full export; the worker slices it itself so every process partitions
// with the same owner table.
func NewWorker(p rbpc.Provision, idx int, cfg Config) (*Worker, error) {
	cfg = cfg.withDefaults()
	if idx < 0 || idx >= cfg.Shards {
		return nil, fmt.Errorf("shardrpc: worker index %d outside %d shards", idx, cfg.Shards)
	}
	if err := shard.SourceOnly(cfg.Engine.Scheme); err != nil {
		return nil, err
	}
	owners, err := shard.NewOwners(cfg.Shards, p.Graph.Order())
	if err != nil {
		return nil, err
	}
	w := &Worker{idx: idx, g: p.Graph}

	ecfg := cfg.Engine
	userTap := cfg.Engine.OnEpoch
	ecfg.OnEpoch = func(s *engine.Snapshot) {
		w.pushSnapshot(s)
		if userTap != nil {
			userTap(s)
		}
	}
	eng, err := engine.New(shard.SliceProvision(p, owners, idx), ecfg)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: worker %d engine: %w", idx, err)
	}
	w.eng = eng
	w.contract = contract(p, cfg, idx) // after engine.New: the provision is servable, its table whole
	return w, nil
}

// Engine exposes the worker's shard engine (tests and the chaos harness
// inspect it).
func (w *Worker) Engine() *engine.Engine { return w.eng }

// Close stops the shard engine.
func (w *Worker) Close() { w.eng.Close() }

// pushSnapshot ships one published epoch to the coordinator as an
// overlay frame. It runs synchronously on the engine's writer goroutine,
// so on any one control connection snapshot frames precede the flush ack
// of the barrier that observed them — the ordering View() leans on. A
// write failure just drops the connection reference; the coordinator's
// reader notices the death independently.
func (w *Worker) pushSnapshot(s *engine.Snapshot) {
	c := w.control.Load()
	if c == nil {
		return
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	buf, err := s.AppendWire(w.snapBuf[:0])
	if err != nil {
		return // only a non-source snapshot refuses, and NewWorker rejected those
	}
	w.snapBuf = buf
	if err := c.WriteFrame(ftSnapshot, 0, 0, buf); err != nil {
		w.control.CompareAndSwap(c, nil)
	}
}

// Serve accepts connections until the listener closes. Each connection
// self-identifies with an attach frame and is served on its own
// goroutine.
func (w *Worker) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		go w.ServeConn(nc)
	}
}

// ServeConn serves one coordinator connection to completion (its role is
// declared by the first frame). The chaos harness calls this directly
// with pipe ends.
func (w *Worker) ServeConn(nc net.Conn) error {
	c := newConn(nc, &w.torn)
	defer c.Close()
	typ, role, _, _, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if typ != ftAttach {
		return fmt.Errorf("shardrpc: worker %d: first frame %d is not attach", w.idx, typ)
	}
	h := w.contract
	h.Epoch = w.eng.Snapshot().Epoch()
	if err := c.WriteFrame(ftHello, 0, 0, appendFixed(nil, h)); err != nil {
		return err
	}
	switch role {
	case roleControl:
		w.control.Store(c)
		// Prime the coordinator's replica so its view is whole before the
		// first churn event.
		w.pushSnapshot(w.eng.Snapshot())
		return w.serveControl(c)
	case roleQuery:
		return w.serveQuery(c)
	}
	return fmt.Errorf("shardrpc: worker %d: unknown attach role %d", w.idx, role)
}

// serveControl handles bursts, barriers, stats, and health checks. All
// replies echo the request sequence number.
func (w *Worker) serveControl(c *Conn) error {
	var (
		evs    []failure.Event
		ackBuf []byte
	)
	for {
		typ, _, seq, payload, err := c.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case ftBurst:
			// One frame is one burst, and one transition; evs is reused, as
			// ApplyEvents copies it.
			evs = evs[:0]
			if evs, err = decodeBurst(payload, evs); err != nil {
				return err
			}
			w.eng.ApplyEvents(evs)
			err = c.WriteFrame(ftBurstAck, 0, seq, nil)
		case ftFlush:
			w.eng.Flush()
			ackBuf = appendFixed(ackBuf[:0], w.eng.Snapshot().Epoch())
			err = c.WriteFrame(ftFlushAck, 0, seq, ackBuf)
		case ftDrain:
			w.eng.Drain()
			err = c.WriteFrame(ftDrainAck, 0, seq, nil)
		case ftStats:
			ackBuf = appendFixed(ackBuf[:0], w.eng.Stats())
			err = c.WriteFrame(ftStatsAck, 0, seq, ackBuf)
		case ftPing:
			ackBuf = appendFixed(ackBuf[:0], w.torn.Load())
			err = c.WriteFrame(ftPong, 0, seq, ackBuf)
		default:
			return fmt.Errorf("shardrpc: worker %d: frame %d on control connection", w.idx, typ)
		}
		if err != nil {
			return err
		}
	}
}

// serveQuery answers query traffic on one pool connection: batches are
// served inline off a single snapshot load (the pool's width, not a
// queue, is the concurrency), single queries return the full route plus
// the worker's own data-plane probe verdict.
func (w *Worker) serveQuery(c *Conn) error {
	var ansBuf []byte
	order := w.g.Order()
	for {
		typ, _, seq, payload, err := c.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case ftQueryBatch:
			n, ok := queryBatchCount(payload)
			if !ok {
				return fmt.Errorf("shardrpc: worker %d: malformed query batch", w.idx)
			}
			ansBuf = grow(ansBuf, answerBatchSize(n))
			w.serveBatch(payload, ansBuf, n, order)
			err = c.WriteFrame(ftAnswerBatch, 0, seq, ansBuf)
		case ftQuery:
			var q query
			if err := decodeFixed(payload, &q); err != nil {
				return err
			}
			ansBuf = w.answerQuery(ansBuf[:0], q)
			err = c.WriteFrame(ftAnswer, 0, seq, ansBuf)
		case ftPing:
			err = c.WriteFrame(ftPong, 0, seq, nil)
		default:
			return fmt.Errorf("shardrpc: worker %d: frame %d on query connection", w.idx, typ)
		}
		if err != nil {
			return err
		}
	}
}

// serveBatch fills the pre-grown answer buffer for one query batch from
// one snapshot load: per pair a row lookup, a flags byte, and the raw cost
// bits — the steady-state serving path, allocation-free end to end. The
// frame is served engine.ServeChunk pairs at a time through the engine's
// own chunked lookup (Snapshot.Routes), so the route misses of a chunk
// overlap instead of each pair's cost waiting on its own lookup. A pair
// with a node outside the topology is looked up as the self-pair of node 0
// and answered unroutable whatever that finds; a self-pair is answered with
// the empty path, cost 0 — not unroutable, as the engine counts it.
//
//rbpc:hotpath
func (w *Worker) serveBatch(payload, ansBuf []byte, n, order int) {
	snap := w.eng.Snapshot()
	fillAnswerCount(ansBuf, n)
	var pairs [engine.ServeChunk]rbpc.Pair
	var routes [engine.ServeChunk]*engine.Route
	for base := 0; base < n; base += engine.ServeChunk {
		m := min(n-base, engine.ServeChunk)
		for i := 0; i < m; i++ {
			src, dst := queryAt(payload, base+i)
			if int(src) >= order || int(dst) >= order {
				src, dst = 0, 0
			}
			pairs[i] = rbpc.Pair{Src: graph.NodeID(src), Dst: graph.NodeID(dst)}
		}
		snap.Routes(pairs[:m], routes[:m])
		for i := 0; i < m; i++ {
			src, dst := queryAt(payload, base+i)
			var flags byte
			var bits uint64
			if int(src) < order && int(dst) < order {
				if rt := routes[i]; rt != nil {
					flags = ansRoutable
					bits = math.Float64bits(rt.Cost)
				} else if src == dst {
					flags = ansRoutable
				}
			}
			fillAnswerAt(ansBuf, base+i, flags, bits)
		}
	}
}

// answerQuery builds the full answer for a synchronous single query off
// the current snapshot, including the verdict of the data-plane walk when
// a probe edge rides along — only the worker owns the shard's real
// forwarding plane, so it must be computed here, not at the coordinator.
// The row is read directly, not through engine.Query: a query is counted
// where its answer lands, on the client.
func (w *Worker) answerQuery(buf []byte, q query) []byte {
	src, dst := graph.NodeID(q.Src), graph.NodeID(q.Dst)
	snap := w.eng.Snapshot()
	res := engine.Result{Src: src, Dst: dst, Snap: snap}
	order := w.g.Order()
	if int(src) < order && int(dst) < order && src != dst {
		res.Route = snap.Route(src, dst)
	}
	a := Answer{Epoch: snap.Epoch(), Failed: snap.Failed(), Route: res.Route}
	a.Routable = res.Route != nil
	if q.Probe != noEdge {
		a.ProbeResult = probe.Verdict(res, graph.EdgeID(q.Probe))
	}
	return appendAnswer(buf, a)
}
