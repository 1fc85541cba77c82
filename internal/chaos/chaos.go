// Package chaos is the deterministic fault-injection conformance harness
// for the online restoration engine (internal/engine). It drives seeded
// schedules of failure bursts, repairs racing failures and queries landing
// mid-rebuild, step by step in schedule order, and checks every served
// answer against independent runtime oracles:
//
//   - optimality: an independent brute-force Dijkstra on the failed graph
//     confirms the served cost is the true post-failure shortest distance;
//   - interleaving bound: the served concatenation has at most 2k+1
//     components, and the served path admits a decomposition into at most
//     k+1 original shortest paths with at most k bare edges (the machine
//     check of Theorems 2/3);
//   - membership: every multi-hop component is a member of the
//     provisioned base set (the Corollary-4 discipline — restoration
//     never invents paths, it concatenates pre-provisioned ones);
//   - monotonicity: the serial query stream never observes an epoch older
//     than one it has already seen, and after a flush the snapshot's
//     failed-set equals the reference model of the event stream;
//   - equivalence: a lockstep reference engine running in FullRebuild mode
//     (every plan computed from scratch, no cache, no incremental reuse)
//     receives the same event stream, and at every flush barrier the two
//     serving matrices must be bit-identical — same per-pair routability,
//     cost bits, and LSP path sequences, same sampled post-failure
//     distances. This is the machine check of the incremental epoch
//     builder's contract: reuse is legal only when a from-scratch build
//     would reproduce the snapshot exactly.
//
// Sharded cases (Config.Shards > 0) run the shard coordinator
// (internal/shard) as the system under test through one lockstep driver:
// the same schedule fans out to every worker, queries route by source
// ownership with per-worker epoch monotonicity, and flush barriers check
// every worker's snapshot against the event model (catching a skewed
// worker or a dropped burst) before comparing the merged cross-shard view
// bit-for-bit against the same single-writer FullRebuild reference.
//
// Process-mode cases (Config.Procs, sharded only) put the cross-process
// transport (internal/shardrpc) under that same driver and those same
// oracles: the worker fleet runs in-process behind net.Pipe connections
// carrying the real length-prefixed wire protocol, so every query crosses
// a full encode/decode round trip, every churn event rides a burst frame,
// and the snapshots the barriers check are the coordinator's decoded
// replicas. FaultSkewShard is injected in the coordinator's one fan-out,
// so it is caught in both modes; FaultTornFrame corrupts one burst frame
// on the wire after its checksum is computed, the receiving worker must
// drop it, and the flush oracle must catch the divergence.
//
// Failing schedules are shrunk to a minimal event sequence by delta
// debugging (Shrink) and emitted as a replayable corpus file that
// cmd/rbpc-chaos re-runs deterministically.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/paths"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/shardrpc"
	"rbpc/internal/topology"
)

// Config parameterizes schedule generation and the engine under test.
// The zero value of any field selects the default.
type Config struct {
	// Nodes is the Waxman topology size (default 18).
	Nodes int
	// TopoSeed seeds the topology generator (default 1).
	TopoSeed int64
	// Seed seeds the schedule generator (default 1).
	Seed int64
	// Steps is the number of churn events per schedule (default 60).
	Steps int
	// MaxDown bounds concurrently-down links (default 3).
	MaxDown int
	// Fault injects a deliberate defect (engine.FaultNone = the production
	// system): a writer defect in every engine under test, or — in the one
	// vocabulary — FaultSkewShard (needs Shards > 0) or FaultTornFrame
	// (needs Procs). The harness must catch every injectable fault.
	Fault engine.Fault
	// Scheme selects the restoration scheme of the engine under test
	// (default engine.SchemeSource). The lockstep reference always runs
	// the source scheme in FullRebuild mode; the oracles dispatch on the
	// flavor of each served answer — source answers are held to the full
	// optimality/theorem chain and bit-matched against the reference,
	// local answers to an exact independent recomputation of their
	// Section-4 construction. Sharded cases support SchemeSource only.
	Scheme engine.Scheme
	// FloodFrozen, for SchemeHybrid cases, freezes the modeled link-state
	// flood (an effectively infinite per-hop delay): no source ever
	// passes its horizon, so affected pairs keep serving their edge-bypass
	// answers and the flush oracles exercise the bypass flavor. Without
	// it hybrid cases run a zero-delay flood — flushed snapshots are
	// converged and must be bit-identical to the source reference.
	FloodFrozen bool
	// Shards, when positive, runs the multi-shard coordinator
	// (internal/shard) as the system under test instead of a single
	// engine: the same event stream fans out to every shard, queries
	// route by source ownership, and flush barriers compare the merged
	// cross-shard view bit-for-bit against the single-writer FullRebuild
	// reference. Zero tests the single engine.
	Shards int
	// Procs, for sharded cases, serves the shards through the
	// cross-process transport (internal/shardrpc) instead of in-process
	// engines: the same worker fleet runs behind net.Pipe connections
	// carrying the real wire protocol, so the oracles check the full
	// frame encode/decode, burst/ack, and replica-merge machinery.
	// Requires Shards > 0.
	Procs bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 18
	}
	if c.TopoSeed == 0 {
		c.TopoSeed = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps == 0 {
		c.Steps = 60
	}
	if c.MaxDown == 0 {
		c.MaxDown = 3
	}
	return c
}

// Case is a fully-specified, reproducible chaos run: the topology
// parameters, the engine configuration under test, and the explicit
// schedule. Same Case -> same run, which is what makes shrinking and
// corpus replay possible.
type Case struct {
	Nodes       int
	TopoSeed    int64
	Seed        int64 // schedule seed the case was generated from (informational)
	MaxDown     int   // informational
	Fault       engine.Fault
	Scheme      engine.Scheme
	FloodFrozen bool
	Shards      int  // 0 = single engine under test
	Procs       bool // serve the shards over the shardrpc transport
	Schedule    failure.Schedule
}

// Generate builds the Case for cfg: the seeded topology plus the seeded
// chaos schedule over it. Same cfg -> identical case, always; replay and
// shrinking depend on it.
//
//rbpc:deterministic
func Generate(cfg Config) (Case, error) {
	cfg = cfg.withDefaults()
	w, err := universe(cfg.Nodes, cfg.TopoSeed)
	if err != nil {
		return Case{}, err
	}
	return Case{
		Nodes:       cfg.Nodes,
		TopoSeed:    cfg.TopoSeed,
		Seed:        cfg.Seed,
		MaxDown:     cfg.MaxDown,
		Fault:       cfg.Fault,
		Scheme:      cfg.Scheme,
		FloodFrozen: cfg.FloodFrozen,
		Shards:      cfg.Shards,
		Procs:       cfg.Procs,
		Schedule:    failure.ChaosSchedule(w.g, cfg.Steps, cfg.MaxDown, rand.New(rand.NewSource(cfg.Seed))),
	}, nil
}

// Violation is one oracle failure. It implements error; Case.Run returns
// the first violation encountered.
type Violation struct {
	// Step is the schedule index whose execution tripped the oracle.
	Step int
	// Epoch is the epoch the violating observation was served from.
	Epoch uint64
	// Kind names the oracle: optimality, theorem-bound,
	// interleaving-bound, membership, monotonicity, flush-agreement,
	// chain, dead-edge, forwarding, unroutable-but-connected,
	// equivalence, torn-view, local-exact, settle, transport.
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: step %d (epoch %d): %s: %s", v.Step, v.Epoch, v.Kind, v.Detail)
}

// Report summarizes one run.
type Report struct {
	Steps int // schedule length
	Churn int // fail/repair steps executed
	// Bursts counts the runs of two or more consecutive fail/repair steps,
	// each handed to the system under test as one ApplyEvents: one
	// multi-link transition.
	Bursts  int
	Queries int   // query steps executed
	Probes  int   // end-to-end data-plane probes sent
	Epochs  int64 // epochs published by the engine (via the OnEpoch tap)
}

// world is the shared immutable context for one (nodes, topoSeed):
// the topology, a pristine provisioned system to export engines from,
// and the all-shortest-paths base set the theorem oracle checks against.
// Provisioning dominates run cost, so worlds are cached. Nothing a run
// builds over a world writes it — an engine reads the provision's graph,
// base set, LSP table and network, and never clones or writes the network
// — so runs over one world may share it, concurrently too.
type world struct {
	g   *graph.Graph
	sys *rbpc.System
	all *paths.AllShortest
	// prov is sys's export: its pairs' primaries are the input of the
	// local schemes' Section-4 constructions, which the oracle recomputes
	// independently for every local-flavor answer.
	prov rbpc.Provision
}

var (
	worldMu sync.Mutex
	worlds  = make(map[[2]int64]*world)
)

func universe(nodes int, topoSeed int64) (*world, error) {
	worldMu.Lock()
	defer worldMu.Unlock()
	key := [2]int64{int64(nodes), topoSeed}
	if w, ok := worlds[key]; ok {
		return w, nil
	}
	g := topology.Waxman(nodes, 0.8, 0.5, topoSeed)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: provisioning %d-node topology (seed %d): %w", nodes, topoSeed, err)
	}
	w := &world{g: g, sys: sys, all: paths.NewAllShortest(g), prov: sys.Export()}
	worlds[key] = w
	return w, nil
}

// Run executes the case and checks every observation against the
// oracles. The returned error is a *Violation on oracle failure, or a
// plain error if the world could not be built.
func (c Case) Run() (Report, error) {
	w, err := universe(c.Nodes, c.TopoSeed)
	if err != nil {
		return Report{}, err
	}
	if c.Procs && c.Shards <= 0 {
		return Report{}, fmt.Errorf("chaos: process-mode cases require Shards > 0")
	}
	if (c.Fault == engine.FaultSkewShard && c.Shards <= 0) || (c.Fault == engine.FaultTornFrame && !c.Procs) {
		return Report{}, fmt.Errorf("chaos: fault %v has nothing to act on in this case (skew-shard needs shards, torn-frame needs procs)", c.Fault)
	}
	var epochs atomic.Int64
	ecfg := engine.Config{
		Scheme:  c.Scheme,
		Fault:   c.Fault,
		OnEpoch: func(*engine.Snapshot) { epochs.Add(1) },
	}
	if c.Scheme == engine.SchemeHybrid && c.FloodFrozen {
		// Freeze the flood: no router's horizon ever passes, so every
		// flushed snapshot keeps serving its edge-bypass answers.
		ecfg.Flood = engine.FloodConfig{Detect: time.Hour, PerHop: time.Hour}
	}
	// The system under test: a single engine, or the shard coordinator
	// over in-process engines or — when the case is process-mode — over
	// socket clients driving the worker fleet through pipe-backed wire
	// connections. Both answer the three calls the schedule makes.
	var sut interface {
		ApplyEvents([]failure.Event)
		Flush()
		Query(src, dst graph.NodeID) engine.Result
	}
	var eng *engine.Engine
	var coord *shard.Coordinator
	if c.Shards > 0 {
		var closeAll func()
		coord, closeAll, err = c.sharded(w.sys.Export(), ecfg)
		if err != nil {
			return Report{}, err
		}
		defer closeAll()
		sut = coord
	} else {
		eng, err = engine.New(w.sys.Export(), ecfg)
		if err != nil {
			return Report{}, err
		}
		defer eng.Close()
		sut = eng
	}

	// The equivalence oracle's reference: a correct engine fed the same
	// event stream, rebuilding every plan from scratch. Flush barriers
	// compare its serving matrix bit-for-bit against the engine under
	// test — incremental reuse (or an injected defect) may never produce
	// a snapshot a from-scratch build would not.
	ref, err := engine.New(w.sys.Export(), engine.Config{FullRebuild: true})
	if err != nil {
		return Report{}, err
	}
	defer ref.Close()

	ck := newChecker(w, c.Scheme)
	rep := Report{Steps: len(c.Schedule)}
	model := make(map[graph.EdgeID]bool) // reference failed-set of the event stream

	var vio *Violation
	for i := 0; i < len(c.Schedule) && vio == nil; i++ {
		st := c.Schedule[i]
		if st.IsChurn() {
			// A maximal run of consecutive fail/repair steps is one burst to
			// the system under test and one to the reference: one transition
			// on each, whatever the writers' timing.
			var evs []failure.Event
			j := i
			for ; j < len(c.Schedule) && c.Schedule[j].IsChurn(); j++ {
				evs = append(evs, c.Schedule[j].Event())
			}
			sut.ApplyEvents(evs)
			ref.ApplyEvents(evs)
			for _, ev := range evs {
				if ev.Repair {
					delete(model, ev.Edge)
				} else {
					model[ev.Edge] = true
				}
			}
			rep.Churn += len(evs)
			if len(evs) > 1 {
				rep.Bursts++
			}
			i = j - 1 // resume after the run
			continue
		}
		switch st.Kind {
		case failure.StepQuery:
			rep.Queries++
			owner := 0
			if coord != nil {
				owner = coord.Owner(st.Src)
			}
			vio = ck.checkResult(i, owner, sut.Query(st.Src, st.Dst))
			rep.Probes = ck.probes
		case failure.StepFlush:
			sut.Flush()
			ref.Flush()
			if coord == nil {
				snap := eng.Snapshot()
				vio = ck.checkFlush(i, 0, snap, model)
				if vio == nil {
					vio = ck.checkEquivalence(i, []*engine.Snapshot{snap}, func(graph.NodeID) int { return 0 }, ref.Snapshot())
				}
				break
			}
			// Per-worker flush agreement: every worker's snapshot (the
			// engine's, or the replica decoded off the wire) must hold the
			// full failed-set — the oracle that catches a skewed worker and
			// a burst dropped on the wire.
			for s := 0; s < coord.Shards() && vio == nil; s++ {
				vio = ck.checkFlush(i, s, coord.Shard(s).Snapshot(), model)
			}
			if vio == nil {
				if v, ok := coord.View(); !ok {
					vio = &Violation{Step: i, Kind: "torn-view",
						Detail: "no consistent cross-shard view after flush"}
				} else {
					snaps := make([]*engine.Snapshot, v.Shards())
					for s := range snaps {
						snaps[s] = v.Shard(s)
					}
					vio = ck.checkEquivalence(i, snaps, coord.Owner, ref.Snapshot())
				}
			}
		case failure.StepSettle:
			// Settle: flush, then wait (real time) for the published
			// snapshot to become time-invariant. Only a live hybrid flood
			// takes nonzero time; a frozen flood never settles, so settle
			// steps degrade to flush barriers there.
			sut.Flush()
			ref.Flush()
			if eng != nil && !c.FloodFrozen {
				deadline := time.Now().Add(5 * time.Second)
				for !eng.Snapshot().Converged() {
					if time.Now().After(deadline) {
						vio = &Violation{Step: i, Epoch: eng.Snapshot().Epoch(), Kind: "settle",
							Detail: "snapshot did not converge within 5s"}
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	rep.Epochs = epochs.Load()
	if vio != nil {
		return rep, vio
	}
	return rep, nil
}

// sharded builds the sharded system under test: shard.New over in-process
// engines, or — for a process-mode case — shardrpc.NewCoordinator over a
// worker fleet served behind net.Pipe, whose embedded coordinator is the
// same type. closeAll tears down whatever was built.
func (c Case) sharded(prov rbpc.Provision, ecfg engine.Config) (coord *shard.Coordinator, closeAll func(), err error) {
	if !c.Procs {
		coord, err = shard.New(prov, shard.Config{Shards: c.Shards, Engine: ecfg})
		if err != nil {
			return nil, nil, err
		}
		return coord, coord.Close, nil
	}
	wcfg := shardrpc.Config{
		Shards: c.Shards,
		Engine: ecfg,
		// The schedule is the only clock: no background pings, and
		// timeouts far beyond any run so a deliberately-dropped burst
		// (FaultTornFrame) is caught by the flush oracle, not by an
		// ack-timeout death racing it.
		HealthEvery: -1,
		AckTimeout:  time.Minute,
		DialBudget:  10 * time.Second,
	}
	var workers []*shardrpc.Worker
	closeWorkers := func() {
		for _, wk := range workers {
			wk.Close()
		}
	}
	for s := 0; s < c.Shards; s++ {
		wk, err := shardrpc.NewWorker(prov, s, wcfg)
		if err != nil {
			closeWorkers()
			return nil, nil, err
		}
		workers = append(workers, wk)
	}
	wcfg.Dial = func(i int) (net.Conn, error) {
		cc, wc := net.Pipe()
		go workers[i].ServeConn(wc)
		return cc, nil
	}
	proc, err := shardrpc.NewCoordinator(prov, wcfg)
	if err != nil {
		closeWorkers()
		return nil, nil, err
	}
	return proc.Coordinator, func() { proc.Close(); closeWorkers() }, nil
}

// Hunt runs the harness over runs consecutive schedule seeds starting at
// cfg.Seed. On the first oracle violation the failing schedule is shrunk
// to a minimal reproduction; the shrunk case and its violation are
// returned. A nil violation means every run was clean.
func Hunt(cfg Config, runs int) (Case, *Violation, error) {
	cfg = cfg.withDefaults()
	for r := 0; r < runs; r++ {
		run := cfg
		run.Seed = cfg.Seed + int64(r)
		c, err := Generate(run)
		if err != nil {
			return Case{}, nil, err
		}
		_, err = c.Run()
		if err == nil {
			continue
		}
		var v *Violation
		if !errors.As(err, &v) {
			return Case{}, nil, err
		}
		if sc, sv := Shrink(c); sv != nil {
			return sc, sv, nil
		}
		// The violation did not reproduce in the case's serial form (it
		// needs the writer's timing): return the unshrunk case with the
		// original violation so the caller still has the evidence.
		return c, v, nil
	}
	return Case{}, nil, nil
}
