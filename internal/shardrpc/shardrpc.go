// Package shardrpc moves the shard coordinator's workers out of process:
// the same partition internal/shard serves from one address space — source
// src on worker src mod N (shard.NewOwners) — served by N worker processes
// over a length-prefixed binary protocol on Unix domain sockets. It is
// transport only — codec, Conn, the socket client that implements
// shard.Worker, the Worker server, the Fleet supervisor,
// attach/reattach/health — under the one shard.Coordinator: NewCoordinator
// dials the workers and hands them to it. The owner table, the slice each
// worker owns (shard.SliceProvision), and the engines are byte-for-byte
// the ones shard.New builds, so a
// process-mode deployment answers bit-identically to `-shards N` (the
// chaos lockstep oracle proves it over a pipe transport).
//
// Wire shape. Every frame is a fixed 20-byte header (magic, payload
// length, sequence, type, flags, CRC-32C of the payload) followed by the
// payload, all little-endian through encoding/binary, no JSON, and reused
// buffers on both ends. A connection reads through one 64 KiB buffered
// reader: a header and its payload, and under load several frames, arrive
// in one read call, and a payload is handed out in place. The hot frames
// (query batches out, answer batches back) encode and decode through
// fixed-offset //rbpc:hotpath functions: zero allocations per query in the
// steady state, verified by allocprove. A fixed-size frame (the hello, a
// single query, the stats ack, the flush ack and the pong) is the
// encoding/binary image of one value — the stats ack is engine.Stats
// itself; the other cold frames (bursts, answers, snapshots) take the
// ordinary append path.
//
// Attach. Every connection opens with an attach frame, answered by the
// worker's hello: its shard index and the shard count (which together fix
// the sources it owns), the topology's order and size, and the length and
// CRC-32C of the provision's LSP table. The
// coordinator computes the same contract from its own provision and refuses
// a worker that differs in any field — a route crosses as the IDs of its
// LSPs, which name the same paths only over the same table.
//
// Traffic. Fail/repair bursts broadcast to every worker on its control
// connection; workers push each published epoch back as an overlay-only
// snapshot frame (engine.Snapshot.AppendWire — the canonical forest is
// rebuilt once per process from the topology and never shipped, and a route
// component is its LSP's ID, one u32), so the decoded replica is the
// shard's current snapshot as the coordinator sees it, and View() merges
// replicas exactly the way it merges in-process snapshot pointers, still
// refusing torn (disagreeing) epochs. Flush is
// an explicit barrier frame: the worker's engine taps OnEpoch on its
// writer goroutine, writing the snapshot frame on the control connection
// before the flush ack, so a flush ack guarantees the coordinator's
// replica is current. A query burst is shared, not partitioned: the
// coordinator hands every owning worker's client the caller's slice, and
// each encodes the pairs its worker owns straight into its frame (one
// frame per owning worker per burst); answers demultiplex by sequence
// number over per-worker connection pools.
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

// queryConns is the query-connection pool each worker is dialed with, in
// addition to its control connection; maxInflight bounds a worker's
// un-acked query batches, beyond which a batch is shed at submit (counted
// dropped); rpcRetries is how many times an RPC that outlived AckTimeout is
// retried before its worker is declared dead.
const (
	queryConns  = 2
	maxInflight = 256
	rpcRetries  = 2
)

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
	// local plans — shard.SourceOnly). Engine.Fault ==
	// engine.FaultTornFrame is the one fault the transport itself acts on
	// (chaos harness only).
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
	// OnEpoch, when non-nil, observes every decoded replica snapshot in
	// arrival order (the chaos flush oracle taps it).
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
// index, raw wire answers, torn-frame counts, and reattaching a
// replacement worker.
type Coordinator struct {
	*shard.Coordinator
	w []*client
}

// NewCoordinator attaches every worker through cfg.Dial and hands the
// clients to the shared coordinator. A worker that cannot be attached
// within the dial budget, or that answers for another deployment, fails
// construction (post-construction crashes are survived, construction
// requires a whole deployment). The full provision's
// canonical matrix (SnapDecoder) decodes the workers' replicas here and,
// in the coordinator, answers for the sources of a crashed worker.
func NewCoordinator(p rbpc.Provision, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dial == nil {
		return nil, fmt.Errorf("shardrpc: config needs a Dialer")
	}
	owners, err := shard.NewOwners(cfg.Shards, p.Graph.Order())
	if err != nil {
		return nil, err
	}
	dec, err := engine.NewSnapDecoder(p)
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

// RemoteQuery exposes the raw single-query RPC to src's owner — the full
// wire answer (epoch, failed-set, route) rather than the Result wrapper.
func (c *Coordinator) RemoteQuery(src, dst graph.NodeID) (Answer, error) {
	return c.w[c.Owner(src)].remoteQuery(src, dst, 0, false)
}

// Reattach dials a replacement for worker i (the supervisor calls this
// after respawning the process) and resyncs it: a fresh worker is
// pristine, so the coordinator's whole model failed-set is replayed as
// one burst and flushed, after which the worker serves current epochs
// and its sources leave the cold tier.
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
	_, err := cl.flush()
	return err
}
