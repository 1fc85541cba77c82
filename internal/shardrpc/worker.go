package shardrpc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
)

// Worker writes one shard of the pair space out of its own process: the
// same engine over the same shard.SliceProvision slice the in-process
// coordinator would build, fronted by the wire protocol. It only writes:
// its one connection carries bursts in and every published epoch back as
// an overlay snapshot frame, plus the flush barrier, stats and pings. The
// coordinator answers every query from the replica it decodes, so the
// worker's engine holds no network (it would forward nothing) and its
// query pool stays idle.
type Worker struct {
	idx int
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
// bit-identical epochs are the whole point — and dropping the slice's
// network: the worker's snapshots forward nothing (Send answers
// engine.ErrNoDataPlane), and a worker process that provisioned the
// network for itself can let it go. The provision must be the full export;
// the worker slices it itself so every process partitions with the same
// owner table.
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
	w := &Worker{idx: idx}

	ecfg := cfg.Engine
	// The coordinator serves every query: the engine's pool stays idle.
	ecfg.Workers, ecfg.QueueDepth, ecfg.OnResult = 1, 1, nil
	userTap := cfg.Engine.OnEpoch
	ecfg.OnEpoch = func(s *engine.Snapshot) {
		w.pushSnapshot(s)
		if userTap != nil {
			userTap(s)
		}
	}
	slice := shard.SliceProvision(p, owners, idx)
	slice.Net = nil
	eng, err := engine.New(slice, ecfg)
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

// ServeConn serves one coordinator connection to completion; it opens with
// an attach frame. The chaos harness calls this directly with pipe ends.
func (w *Worker) ServeConn(nc net.Conn) error {
	c := newConn(nc, &w.torn)
	defer c.Close()
	typ, _, _, _, err := c.ReadFrame()
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
	w.control.Store(c)
	// Prime the coordinator's replica so its view is whole before the
	// first churn event.
	w.pushSnapshot(w.eng.Snapshot())
	return w.serveControl(c)
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
		case ftStats:
			ackBuf = appendFixed(ackBuf[:0], w.eng.Stats())
			err = c.WriteFrame(ftStatsAck, 0, seq, ackBuf)
		case ftPing:
			ackBuf = appendFixed(ackBuf[:0], w.torn.Load())
			err = c.WriteFrame(ftPong, 0, seq, ackBuf)
		default:
			return fmt.Errorf("shardrpc: worker %d: unexpected frame %d", w.idx, typ)
		}
		if err != nil {
			return err
		}
	}
}
