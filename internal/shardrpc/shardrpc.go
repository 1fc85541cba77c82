// Package shardrpc moves the shard coordinator's writers out of process:
// the same partition internal/shard serves from one address space — source
// src on worker src mod N (shard.NewOwners) — written by N worker
// processes over a length-prefixed binary protocol on Unix domain sockets.
// It is transport only — codec, Conn, the socket client that implements
// shard.Worker, the Worker server, the Fleet supervisor,
// attach/reattach/health — under the one shard.Coordinator: NewCoordinator
// dials the workers and hands them to it. The owner table, the slice each
// worker owns (shard.SliceProvision), and the epochs are byte-for-byte the
// ones shard.New builds, so a process-mode deployment answers
// bit-identically to `-shards N` (the chaos lockstep oracle proves it over
// a pipe transport).
//
// Wire shape. The wire carries epochs, not queries. Every frame is a fixed
// 20-byte header (magic, payload length, sequence, type, flags, CRC-32C of
// the payload) followed by the payload, all little-endian through
// encoding/binary, no JSON, and reused buffers on both ends. A connection
// reads through one 64 KiB buffered reader: a header and its payload, and
// often several frames, arrive in one read call, and a payload is handed
// out in place. A fixed-size frame (the hello, the stats ack, the flush ack
// and the pong) is the encoding/binary image of one value — the stats ack
// is engine.Stats itself; bursts and snapshots take the ordinary append
// path.
//
// Attach. Every connection opens with an attach frame, answered by the
// worker's hello: its shard index and the shard count (which together fix
// the sources it owns), the topology's order and size, and the length and
// CRC-32C of the provision's LSP table. The
// coordinator computes the same contract from its own provision and refuses
// a worker that differs in any field — a route crosses as the IDs of its
// LSPs, which name the same paths only over the same table.
//
// Traffic. A worker only writes. Fail/repair bursts broadcast to every
// worker on its one connection; workers push each published epoch back as
// an overlay-only snapshot frame (engine.Snapshot.AppendWire — under the
// source-router scheme only a source's FEC table changes, so an epoch is
// its overlay rows; the canonical table is rebuilt once per process from
// the provision and never shipped, and a route component is its LSP's ID,
// one u32). The decoded replica is the shard's current snapshot as the
// coordinator sees it, over the provision's own network, and View() merges
// replicas exactly the way it merges in-process snapshot pointers, still
// refusing torn (disagreeing) epochs. Flush is an explicit barrier frame:
// the worker's engine taps OnEpoch on its writer goroutine, writing the
// snapshot frame before the flush ack, so a flush ack guarantees the
// coordinator's replica is current. Queries, bursts of queries and probes
// never cross the wire: each client answers its worker's sources from the
// replica through an engine.Pool, the engine's own query pool, exactly as
// an in-process shard answers from its engine's snapshot.
//
// Failure. Per-worker health checks, a configurable attach budget and ack
// timeout with bounded retry, and crash diversion: while a worker is down its
// sources are re-solved through the Corollary-4 cold tier against a
// detached snapshot of the coordinator's failed-set model, until a
// replacement process attaches and is resynced by replaying the current
// failed-set as a burst.
package shardrpc

import (
	"fmt"
	"net"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
)

// Dialer opens a transport connection to one worker. The serve command
// dials the worker's Unix socket; the chaos harness hands back one end of
// a net.Pipe.
type Dialer func(worker int) (net.Conn, error)

// rpcRetries is how many times an RPC that outlived AckTimeout is retried
// before its worker is declared dead.
const rpcRetries = 2

// Config tunes the process-mode coordinator and its workers. Shards is the
// routing contract — every process of a deployment must agree, and the
// hello handshake rejects a worker built for another shard count, as it
// does one provisioned differently. The coordinator-side cold tier, which
// answers never-materialized sources and the sources of a crashed worker,
// has no knob (shard.Config).
type Config struct {
	// Shards is the worker count (required, 1 to shard.MaxShards).
	Shards int
	// Engine is the per-worker engine template; its Scheme must be
	// engine.SchemeSource (the snapshot wire format ships overlays, not
	// local plans — shard.SourceOnly). Workers, QueueDepth and OnResult act
	// at the coordinator, where every query is answered: they size and tap
	// each client's query pool (engine.Pool), one per worker, as they size
	// and tap each shard engine's in process. Engine.Fault ==
	// engine.FaultTornFrame and engine.FaultPristineView are the faults the
	// transport and its snapshot decoder act on (chaos harness only).
	Engine engine.Config
	// Dial opens a connection to a worker (required on the coordinator).
	Dial Dialer
	// DialBudget bounds the whole attach or reattach of one worker: every
	// read of the handshake waits until its deadline, which is how long a
	// freshly forked worker may spend provisioning behind a Fleet socket
	// that already accepts. A dial or handshake that fails is retried
	// (a Fleet's dials do not fail while it is open); a hello that breaks
	// the contract is not. Default 2min.
	DialBudget time.Duration
	// AckTimeout bounds one RPC round trip; an RPC is retried up to
	// rpcRetries times before the worker is declared dead. Default 5s.
	AckTimeout time.Duration
	// HealthEvery is the ping cadence per worker (default 1s; <0
	// disables, which the deterministic chaos harness does).
	HealthEvery time.Duration
	// OnEpoch, when non-nil, observes every decoded snapshot that becomes
	// a worker's replica, in arrival order (the chaos flush oracle taps it).
	OnEpoch func(worker int, snap *engine.Snapshot)
}

func (cfg Config) withDefaults() Config {
	if cfg.DialBudget <= 0 {
		cfg.DialBudget = 2 * time.Minute
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = time.Second
	}
	return cfg
}

// Coordinator is the process-mode front: the shard.Coordinator itself,
// over socket clients, plus what only a transport has — replicas by
// index, torn-frame counts, and reattaching a replacement worker.
type Coordinator struct {
	*shard.Coordinator
	w []*client
}

// NewCoordinator attaches every worker through cfg.Dial and hands the
// clients to the shared coordinator. A worker that cannot be attached
// within the dial budget, or that answers for another deployment, fails
// construction (post-construction crashes are survived, construction
// requires a whole deployment). The full provision's
// canonical matrix (SnapDecoder) decodes the workers' replicas here, which
// answer every query of their sources, and, in the coordinator, answers for
// the sources of a crashed worker.
func NewCoordinator(p rbpc.Provision, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dial == nil {
		return nil, fmt.Errorf("shardrpc: config needs a Dialer")
	}
	owners, err := shard.NewOwners(cfg.Shards, p.Graph.Order())
	if err != nil {
		return nil, err
	}
	dec, err := engine.NewSnapDecoder(p, cfg.Engine.Fault)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{w: make([]*client, cfg.Shards)}
	workers := make([]shard.Worker, cfg.Shards)
	want := contract(p, cfg, 0)
	for i := range c.w {
		want.Shard = uint32(i)
		c.w[i] = newClient(i, cfg, p, owners, dec, want)
		workers[i] = c.w[i]
		if err := c.w[i].attachWithin(); err != nil {
			for _, cl := range c.w[:i+1] {
				cl.Close()
			}
			return nil, err
		}
		c.w[i].admit()
	}
	scfg := shard.Config{Shards: cfg.Shards, Engine: cfg.Engine}
	c.Coordinator, err = shard.Over(p, scfg, owners, workers, dec)
	if err != nil {
		for _, cl := range c.w {
			cl.Close()
		}
		return nil, err
	}
	return c, nil
}

// Replica returns worker i's latest decoded snapshot.
func (c *Coordinator) Replica(i int) *engine.Snapshot { return c.w[i].Snapshot() }

// Torn counts the checksum-failed frames dropped on either end of every
// live worker's connections: this end's own count plus the count each
// worker reports in its pong. A FaultTornFrame run reads >= 1 — the
// corrupted burst is dropped by the worker's Conn — and a clean run 0.
func (c *Coordinator) Torn() int64 {
	var n int64
	for _, cl := range c.w {
		n += cl.torn.Load()
		if cl.Alive() {
			n += cl.ping()
		}
	}
	return n
}

// Answer is one pair's answer from its owner's replica: the epoch and
// failed-set it was read under and the route (nil when unroutable).
type Answer struct {
	Epoch  uint64
	Failed []graph.EdgeID
	Route  *engine.Route
}

// RemoteQuery answers one pair from its owner's replica, counted as a
// query, and fails while the owner is down (Query would divert the pair to
// the cold tier). It is kept for the benchmark's per-layer probe.
func (c *Coordinator) RemoteQuery(src, dst graph.NodeID) (Answer, error) {
	cl := c.w[c.Owner(src)]
	res, ok := cl.Query(src, dst)
	if !ok {
		return Answer{}, fmt.Errorf("shardrpc: worker %d is down", cl.idx)
	}
	return Answer{Epoch: res.Snap.Epoch(), Failed: res.Snap.Failed(), Route: res.Route}, nil
}

// Reattach dials a replacement for worker i (the supervisor calls this
// after respawning the process) and resyncs it: a fresh worker is
// pristine and starts a new epoch line at 0, so the coordinator's whole
// model failed-set is replayed as one burst and flushed into the replica.
// Only then is the worker alive again and its sources leave the cold tier.
func (c *Coordinator) Reattach(i int) error {
	cl := c.w[i]
	if err := cl.attachWithin(); err != nil {
		return err
	}
	if failed := c.Failed(); len(failed) > 0 {
		evs := make([]failure.Event, len(failed))
		for j, ed := range failed {
			evs[j] = failure.Event{Edge: ed}
		}
		cl.Apply(evs)
	}
	if _, err := cl.flush(); err != nil {
		return err
	}
	cl.admit()
	return nil
}
