package shardrpc

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/topology"
)

// pipeFarm runs a full worker fleet in-process over net.Pipe — the same
// transport the chaos harness drives. Dial hands the coordinator one end
// and serves the other on a fresh goroutine, exactly like a socket
// accept loop would.
type pipeFarm struct {
	p       rbpc.Provision
	cfg     Config
	workers []*Worker
	mu      sync.Mutex
	dead    map[int]bool
}

func newPipeFarm(t testing.TB, p rbpc.Provision, cfg Config) *pipeFarm {
	t.Helper()
	f := &pipeFarm{p: p, cfg: cfg, workers: make([]*Worker, cfg.Shards), dead: make(map[int]bool)}
	for i := 0; i < cfg.Shards; i++ {
		f.workers[i] = f.newWorker(t, i)
	}
	return f
}

func (f *pipeFarm) newWorker(t testing.TB, i int) *Worker {
	t.Helper()
	w, err := NewWorker(f.p, i, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func (f *pipeFarm) dial(i int) (net.Conn, error) {
	f.mu.Lock()
	dead := f.dead[i]
	w := f.workers[i]
	f.mu.Unlock()
	if dead {
		return nil, net.ErrClosed
	}
	cc, wc := net.Pipe()
	go w.ServeConn(wc)
	return cc, nil
}

// kill simulates a worker-process crash: new dials are refused and the
// live control pipe is severed, which the coordinator's reader observes
// as an immediate connection death.
func (f *pipeFarm) kill(i int) {
	f.mu.Lock()
	f.dead[i] = true
	w := f.workers[i]
	f.mu.Unlock()
	if c := w.control.Load(); c != nil {
		c.Close()
	}
}

func (f *pipeFarm) revive(i int) {
	f.mu.Lock()
	f.dead[i] = false
	f.mu.Unlock()
}

// respawn is a supervisor's re-exec of a killed worker: new dials reach a
// fresh NewWorker, whose engine starts pristine at epoch 0.
func (f *pipeFarm) respawn(t testing.TB, i int) {
	w := f.newWorker(t, i)
	f.mu.Lock()
	f.workers[i] = w
	f.dead[i] = false
	f.mu.Unlock()
}

func testConfig(f *pipeFarm, shards int) Config {
	return Config{
		Shards:      shards,
		Dial:        f.dial,
		AckTimeout:  2 * time.Second,
		DialBudget:  2 * time.Second,
		HealthEvery: -1, // deterministic tests drive liveness themselves
	}
}

func buildProvision(t testing.TB, n int, seed int64) rbpc.Provision {
	t.Helper()
	g := topology.Waxman(n, 0.8, 0.5, seed)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys.Export()
}

// TestProcMatchesInProcess drives the process-mode coordinator and an
// in-process shard.Coordinator through identical churn and asserts
// bit-identical serving after every flush: every pair's routability, cost
// bits and component paths agree in the merged views and in a synchronous
// Query of each, and so does every pair's ProbeQuery verdict under the
// link the last event touched — a walk of the replica's data plane against
// a walk of the engine's.
func TestProcMatchesInProcess(t *testing.T) {
	const shards = 3
	p := buildProvision(t, 16, 11)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	ref, err := shard.New(p, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	n := p.Graph.Order()
	delivered := 0
	check := func(tag string, ed graph.EdgeID) {
		t.Helper()
		pv, ok := proc.View()
		if !ok {
			t.Fatalf("%s: process view torn", tag)
		}
		rv, ok := ref.View()
		if !ok {
			t.Fatalf("%s: reference view torn", tag)
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				src, dst := graph.NodeID(s), graph.NodeID(d)
				sameRoute(t, tag+" view", s, d, rv.Route(src, dst), pv.Route(src, dst))
				sameRoute(t, tag+" query", s, d, ref.Query(src, dst).Route, proc.Query(src, dst).Route)
				want, got := ref.ProbeQuery(src, dst, ed), proc.ProbeQuery(src, dst, ed)
				if got != want {
					t.Fatalf("%s: pair %d->%d probed under link %d: verdict %+v, in process %+v", tag, s, d, ed, got, want)
				}
				if got.FailedContains && got.Delivered {
					delivered++
				}
			}
		}
	}

	check("pristine", 0)
	churn := []struct {
		repair bool
		edge   graph.EdgeID
	}{
		{false, 2}, {false, 7}, {true, 2}, {false, 11}, {false, 3}, {true, 7}, {true, 11},
	}
	for _, ev := range churn {
		if ev.repair {
			proc.Repair(ev.edge)
			ref.Repair(ev.edge)
		} else {
			proc.Fail(ev.edge)
			ref.Fail(ev.edge)
		}
		proc.Flush()
		ref.Flush()
		check("churn", ev.edge)
	}
	if delivered == 0 {
		t.Fatal("vacuous: no probe walked a replica's data plane under a failed link")
	}
}

// sameRoute fails the test unless the in-process route w and the process
// route g agree in routability, cost bits and component paths.
func sameRoute(t *testing.T, tag string, s, d int, w, g *engine.Route) {
	t.Helper()
	if (w == nil) != (g == nil) {
		t.Fatalf("%s: pair %d->%d routable %v, process %v", tag, s, d, w != nil, g != nil)
	}
	if w == nil {
		return
	}
	if math.Float64bits(w.Cost) != math.Float64bits(g.Cost) {
		t.Fatalf("%s: pair %d->%d cost bits diverge", tag, s, d)
	}
	if len(w.LSPs) != len(g.LSPs) {
		t.Fatalf("%s: pair %d->%d component count %d vs %d", tag, s, d, len(w.LSPs), len(g.LSPs))
	}
	for i := range w.LSPs {
		if !w.LSPs[i].Path.Equal(g.LSPs[i].Path) {
			t.Fatalf("%s: pair %d->%d component %d diverges", tag, s, d, i)
		}
	}
}

// TestProcRespawnedWorkerServesCurrentFailures: a respawned worker is a
// fresh process whose engine counts epochs from 0 again, behind a replica
// the dead one left several epochs ahead. After Reattach its sources must
// be served from the new worker's epochs — the churn that happened while
// it was down included — so every pair's Query and ProbeQuery verdict, under
// a link failed and a link repaired during the outage, matches an
// in-process reference.
func TestProcRespawnedWorkerServesCurrentFailures(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 16, 11)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	ref, err := shard.New(p, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	step := func(ed graph.EdgeID, repair bool) {
		if repair {
			proc.Repair(ed)
			ref.Repair(ed)
		} else {
			proc.Fail(ed)
			ref.Fail(ed)
		}
		proc.Flush()
		ref.Flush()
	}

	const victim = 0
	for _, ed := range []graph.EdgeID{2, 7, 11, 5} {
		step(ed, false)
	}
	step(7, true)
	old := proc.Replica(victim).Epoch()

	farm.kill(victim)
	deadline := time.Now().Add(2 * time.Second)
	for proc.Shard(victim).Alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if proc.Shard(victim).Alive() {
		t.Fatal("worker never marked dead after its control connection died")
	}
	const repaired, failed = graph.EdgeID(2), graph.EdgeID(3)
	step(repaired, true)
	step(failed, false)

	farm.respawn(t, victim)
	if err := proc.Reattach(victim); err != nil {
		t.Fatal(err)
	}
	if !proc.Shard(victim).Alive() {
		t.Fatal("worker not alive after reattach")
	}
	if got := proc.Replica(victim).Epoch(); got >= old {
		t.Fatalf("vacuous: the respawned worker's replica is at epoch %d, the dead one's was %d", got, old)
	}
	if got, want := proc.Replica(victim).Failed(), ref.Shard(victim).Snapshot().Failed(); !slices.Equal(got, want) {
		t.Fatalf("respawned worker's replica holds failed set %v, want %v", got, want)
	}
	n := p.Graph.Order()
	owned := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := graph.NodeID(s), graph.NodeID(d)
			if proc.Owner(src) == victim {
				owned++
			}
			sameRoute(t, "after respawn", s, d, ref.Query(src, dst).Route, proc.Query(src, dst).Route)
			for _, ed := range []graph.EdgeID{repaired, failed} {
				if want, got := ref.ProbeQuery(src, dst, ed), proc.ProbeQuery(src, dst, ed); got != want {
					t.Fatalf("pair %d->%d probed under link %d after respawn: verdict %+v, in process %+v", s, d, ed, got, want)
				}
			}
		}
	}
	if owned == 0 {
		t.Fatal("vacuous: the respawned worker owns no source")
	}
}

// TestSendWithoutDataPlane: a worker's engine holds no network — it answers
// no query, so it forwards nothing — and its snapshot answers Send with
// the sentinel; the coordinator's replica of the same epoch forwards over
// the provision's network, and a pair with no entry is mpls.ErrNoRoute.
func TestSendWithoutDataPlane(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 6)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	src := graph.NodeID(0)
	owner := proc.Owner(src)
	if _, err := farm.workers[owner].Engine().Snapshot().Send(src, 1); !errors.Is(err, engine.ErrNoDataPlane) {
		t.Fatalf("Send on a worker's snapshot: %v, want ErrNoDataPlane", err)
	}
	if pkt, err := proc.Replica(owner).Send(src, 1); err != nil || pkt.At != 1 {
		t.Fatalf("Send on the replica: %+v, %v; want delivered at 1", pkt, err)
	}
	if _, err := proc.Replica(owner).Send(src, src); !errors.Is(err, mpls.ErrNoRoute) {
		t.Fatalf("Send for a pair with no entry: %v, want ErrNoRoute", err)
	}
}

// TestProcSubmitBatchAndStats submits a burst to the process-mode
// coordinator and checks that Config.Engine.OnResult receives every
// accepted answer, each read off its owner's replica, and that the merged
// stats account them: accepted queries settle into Queries and the latency
// histogram after Drain.
func TestProcSubmitBatchAndStats(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 3)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	var mu sync.Mutex
	answered := 0
	var foreign error
	var proc *Coordinator
	cfg.Engine.OnResult = func(r engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		answered++
		if foreign == nil && r.Snap != proc.Replica(proc.Owner(r.Src)) {
			foreign = fmt.Errorf("%d->%d answered from epoch %d, not its owner's replica", r.Src, r.Dst, r.Snap.Epoch())
		}
	}
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	n := p.Graph.Order()
	var pairs []rbpc.Pair
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
			}
		}
	}
	accepted := proc.SubmitBatch(pairs)
	if accepted == 0 {
		t.Fatal("no queries accepted")
	}
	proc.Drain()
	mu.Lock()
	if answered != accepted || foreign != nil {
		t.Fatalf("OnResult received %d answers of %d accepted (%v)", answered, accepted, foreign)
	}
	mu.Unlock()
	st := proc.Stats()
	if st.Queries < int64(accepted) {
		t.Fatalf("stats count %d queries, %d were accepted", st.Queries, accepted)
	}
	if st.Shards != shards {
		t.Fatalf("stats report %d shards", st.Shards)
	}
	if st.QueryLatency.Count < int64(accepted) {
		t.Fatalf("latency histogram holds %d samples, %d queries were accepted", st.QueryLatency.Count, accepted)
	}
}

// TestProcWorkerCrashDivertsAndReattaches kills one worker, proves its
// sources keep answering through the cold tier (routable pairs stay
// routable, with the current failed-set honored), then reattaches a
// replacement and proves full bit-identical service resumes, including
// the replayed failed-set.
func TestProcWorkerCrashDivertsAndReattaches(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 14, 21)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	cfg.AckTimeout = 200 * time.Millisecond
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	ed := graph.EdgeID(5)
	proc.Fail(ed)
	proc.Flush()

	const victim = 0
	killAndDivert(t, proc, farm, p, victim, ed)

	// Replacement attaches: fresh worker, failed-set replayed, full
	// service resumes bit-identically to an in-process reference.
	farm.revive(victim)
	if err := proc.Reattach(victim); err != nil {
		t.Fatal(err)
	}
	checkReattached(t, proc, p, victim, ed)
}

// TestProcReattachBudgetExhausted: a Reattach whose worker stays dead
// gives up inside its dial budget, leaves the worker dead and its sources
// on the cold tier, and a later Reattach after the worker comes back
// restores full service.
func TestProcReattachBudgetExhausted(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 14, 21)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	cfg.DialBudget = 300 * time.Millisecond
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	ed := graph.EdgeID(5)
	proc.Fail(ed)
	proc.Flush()

	const victim = 0
	killAndDivert(t, proc, farm, p, victim, ed)

	start := time.Now()
	err = proc.Reattach(victim)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "attach budget exhausted") {
		t.Fatalf("Reattach of a dead worker returned %v, want an exhausted attach budget", err)
	}
	if limit := cfg.DialBudget + 2*maxAttachPause; took > limit {
		t.Fatalf("Reattach gave up after %v, budget %v plus two attach pauses is %v", took, cfg.DialBudget, limit)
	}
	if proc.Shard(victim).Alive() {
		t.Fatal("worker alive after a failed reattach")
	}
	if _, ok := proc.View(); ok {
		t.Fatal("view claims consistency after a failed reattach")
	}
	checkColdAnswers(t, proc, p, victim, ed)

	farm.revive(victim)
	if err := proc.Reattach(victim); err != nil {
		t.Fatal(err)
	}
	checkReattached(t, proc, p, victim, ed)
}

// TestProcWorkerDiesAsFleetCloses: worker 0 dies while the coordinator
// closes, with a burst's ack and the health pings in flight. Close returns
// within two ack timeouts, nothing panics, and every goroutine the
// coordinator started — connection readers, health loops, burst-ack
// watchers, the cold tier, the workers' connection servers — is gone after
// it, so the goroutine count settles back to its value before the
// coordinator was built.
func TestProcWorkerDiesAsFleetCloses(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 5)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	cfg.AckTimeout = 200 * time.Millisecond
	cfg.HealthEvery = time.Millisecond
	before := runtime.NumGoroutine()
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc.Fail(3) // its ack watchers are pending as the fleet closes
	proc.SubmitBatch([]rbpc.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})

	var killed sync.WaitGroup
	killed.Add(1)
	go func() {
		defer killed.Done()
		farm.kill(0)
	}()
	start := time.Now()
	proc.Close()
	took := time.Since(start)
	killed.Wait()
	if took > 2*cfg.AckTimeout {
		t.Fatalf("Close took %v with a worker dying under it, want at most %v", took, 2*cfg.AckTimeout)
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5s after Close, %d before the coordinator:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestClientAffectedPairsMatchSlice: each socket client lists, for every
// link, exactly the pairs of its worker's slice whose primary crosses it —
// order included, against a reference built from Provision.Primary over the
// slice — without a frame: the provision is known on both ends. The
// provision is a subpath closure, whose links meet their primaries out of
// (src, dst) order.
func TestClientAffectedPairsMatchSlice(t *testing.T) {
	const shards = 3
	p := buildProvision(t, 16, 11)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	owners, err := shard.NewOwners(shards, p.Graph.Order())
	if err != nil {
		t.Fatal(err)
	}
	n := p.Graph.Order()
	for i, cl := range proc.w {
		slice := shard.SliceProvision(p, owners, i)
		want := make([][]graph.NodePair, p.Graph.Size())
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if idx, ok := slice.Primary(graph.NodeID(s), graph.NodeID(d)); ok {
					for _, ed := range slice.BaseLSPs[idx].Path.Edges {
						want[ed] = append(want[ed], graph.NodePair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
					}
				}
			}
		}
		for ed := range want {
			if got := cl.AffectedPairs(graph.EdgeID(ed)); !slices.Equal(got, want[ed]) {
				t.Fatalf("worker %d, link %d: affected pairs %v, the slice's primaries crossing it %v", i, ed, got, want[ed])
			}
		}
	}
}

// killAndDivert kills worker victim, waits for the coordinator to mark it
// dead and checks the view refuses to merge without it and its sources
// answer from the cold tier under the failed set [ed].
func killAndDivert(t *testing.T, proc *Coordinator, farm *pipeFarm, p rbpc.Provision, victim int, ed graph.EdgeID) {
	t.Helper()
	farm.kill(victim)
	// The severed control pipe kills the reader immediately.
	deadline := time.Now().Add(2 * time.Second)
	for proc.Shard(victim).Alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if proc.Shard(victim).Alive() {
		t.Fatal("worker never marked dead after its control connection died")
	}
	if _, ok := proc.View(); ok {
		t.Fatal("view claims consistency with a dead worker")
	}
	checkColdAnswers(t, proc, p, victim, ed)
}

// checkColdAnswers: victim-owned sources divert to the cold tier and still
// answer under the current failed set [ed].
func checkColdAnswers(t *testing.T, proc *Coordinator, p rbpc.Provision, victim int, ed graph.EdgeID) {
	t.Helper()
	n := p.Graph.Order()
	before := proc.Stats().Cold.Queries
	served := 0
	for s := 0; s < n && served < 4; s++ {
		src := graph.NodeID(s)
		if proc.Owner(src) != victim {
			continue
		}
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			res := proc.Query(src, graph.NodeID(d))
			if res.Route != nil {
				served++
				if len(res.Snap.Failed()) != 1 || res.Snap.Failed()[0] != ed {
					t.Fatalf("cold answer served under failed-set %v, want [%d]", res.Snap.Failed(), ed)
				}
				break
			}
		}
	}
	if served == 0 {
		t.Fatal("no victim-owned pair answered through the cold tier")
	}
	if proc.Stats().Cold.Queries == before {
		t.Fatal("cold tier shows no diverted queries")
	}
}

// checkReattached: worker victim is alive again, replays the failed set
// [ed], and every pair is served bit-identically to an in-process
// shard.New with ed failed.
func checkReattached(t *testing.T, proc *Coordinator, p rbpc.Provision, victim int, ed graph.EdgeID) {
	t.Helper()
	if !proc.Shard(victim).Alive() {
		t.Fatal("worker not alive after reattach")
	}
	pv, ok := proc.View()
	if !ok {
		t.Fatal("view torn after reattach")
	}
	if f := pv.Shard(victim).Failed(); len(f) != 1 || f[0] != ed {
		t.Fatalf("reattached worker serves failed-set %v, want [%d]", f, ed)
	}
	ref, err := shard.New(p, shard.Config{Shards: proc.Shards()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Fail(ed)
	ref.Flush()
	n := p.Graph.Order()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := graph.NodeID(s), graph.NodeID(d)
			w, g := ref.Query(src, dst).Route, pv.Route(src, dst)
			if w == nil && g == nil {
				continue
			}
			if (w == nil) != (g == nil) ||
				(w != nil && math.Float64bits(w.Cost) != math.Float64bits(g.Cost)) {
				t.Fatalf("pair %d->%d diverges after reattach", s, d)
			}
		}
	}
}

// TestProcTornFrameCaught arms the torn-frame fault and proves the
// transport detects and drops the corrupted burst (torn counter), the
// victim worker silently misses the event, and the coordinator's view
// refuses to merge the diverged replicas.
func TestProcTornFrameCaught(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 9)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	cfg.Engine.Fault = engine.FaultTornFrame
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	proc.Fail(3)
	proc.Flush()

	if _, ok := proc.View(); ok {
		t.Fatal("view merged despite a torn burst frame")
	}
	rep := proc.Replica(0)
	if len(rep.Failed()) != 0 {
		t.Fatalf("worker 0 replica knows failed-set %v despite torn burst", rep.Failed())
	}
	if rep := proc.Replica(1); len(rep.Failed()) != 1 {
		t.Fatalf("worker 1 replica failed-set %v, want one edge", rep.Failed())
	}
	if got := farm.workers[0].torn.Load(); got != 1 {
		t.Fatalf("worker 0 dropped %d torn frames, want exactly 1", got)
	}
	// The frame was dropped at the worker's end of the wire; Torn() must
	// see it all the same.
	if got := proc.Torn(); got < 1 {
		t.Fatalf("Torn() = %d after a torn burst frame, want >= 1", got)
	}
}

// TestProcTornCleanRunReadsZero is the other half of the Torn() contract:
// churn, flushes and queries over a sound transport drop nothing.
func TestProcTornCleanRunReadsZero(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 9)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	proc.Fail(3)
	proc.Flush()
	proc.Query(0, 5)
	proc.Repair(3)
	proc.Flush()
	if _, ok := proc.View(); !ok {
		t.Fatal("clean run has a torn view")
	}
	if got := proc.Torn(); got != 0 {
		t.Fatalf("Torn() = %d on a clean run, want 0", got)
	}
}

// TestQueriesCountedOnceInBothModes: N Query + M ProbeQuery calls and a
// burst of B pairs raise Stats().Queries by exactly N+M+B through the
// in-process coordinator and through the pipe-backed one — every answered
// query is counted once, by the worker implementation that answered it —
// and the serving counters of the burst's admission, Submitted, Dropped and
// QueueDepth, read the same in both.
func TestQueriesCountedOnceInBothModes(t *testing.T) {
	const shards, nQuery, nProbe = 2, 7, 5
	p := buildProvision(t, 12, 9)
	inproc, err := shard.New(p, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	farm := newPipeFarm(t, p, Config{Shards: shards})
	wire, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()

	n := p.Graph.Order()
	var burst []rbpc.Pair
	for s := 0; s < n; s++ {
		burst = append(burst, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID((s + 2) % n)})
	}
	delta := map[string]engine.Stats{}
	for name, c := range map[string]*shard.Coordinator{"in-process": inproc, "wire": wire.Coordinator} {
		before := c.Stats()
		for i := 0; i < nQuery; i++ {
			if c.Query(graph.NodeID(i%n), graph.NodeID((i+3)%n)).Route == nil {
				t.Fatalf("%s: query %d unroutable on a pristine network", name, i)
			}
		}
		for i := 0; i < nProbe; i++ {
			if !c.ProbeQuery(graph.NodeID(i%n), graph.NodeID((i+5)%n), 0).Routable {
				t.Fatalf("%s: probe %d unroutable on a pristine network", name, i)
			}
		}
		if got := c.SubmitBatch(slices.Clone(burst)); got != len(burst) {
			t.Fatalf("%s: %d of %d pairs accepted", name, got, len(burst))
		}
		c.Drain()
		after := c.Stats()
		if got, want := after.Queries-before.Queries, int64(nQuery+nProbe+len(burst)); got != want {
			t.Errorf("%s: %d Query + %d ProbeQuery + a burst of %d raised Stats().Queries by %d, want %d",
				name, nQuery, nProbe, len(burst), got, want)
		}
		delta[name] = engine.Stats{
			Submitted:  after.Submitted - before.Submitted,
			Dropped:    after.Dropped - before.Dropped,
			QueueDepth: after.QueueDepth,
		}
	}
	in, wr := delta["in-process"], delta["wire"]
	if in.Submitted != int64(len(burst)) || wr.Submitted != in.Submitted ||
		wr.Dropped != in.Dropped || wr.QueueDepth != in.QueueDepth {
		t.Errorf("serving counters disagree: in process submitted %d, dropped %d, queue %d; wire %d, %d, %d; want %d submitted",
			in.Submitted, in.Dropped, in.QueueDepth, wr.Submitted, wr.Dropped, wr.QueueDepth, len(burst))
	}
}

// TestProcContractMismatchRejected proves the hello handshake refuses a
// worker built for a different shard count: its slice is source mod 3, not
// the coordinator's source mod 2.
func TestProcContractMismatchRejected(t *testing.T) {
	p := buildProvision(t, 10, 4)
	wrong, err := NewWorker(p, 0, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	dial := func(int) (net.Conn, error) {
		cc, wc := net.Pipe()
		go wrong.ServeConn(wc)
		return cc, nil
	}
	_, err = NewCoordinator(p, Config{
		Shards: 2, Dial: dial,
		DialBudget:  200 * time.Millisecond,
		HealthEvery: -1,
	})
	if err == nil {
		t.Fatal("coordinator accepted a worker built for a different shard count")
	}
	if !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("NewCoordinator: %v; the error does not name the shard count", err)
	}
}

// TestProcContractMismatchFailsAtOnce: a hello that breaks the contract
// cannot heal, so the attach loop gives up on it at once instead of
// retrying it for the whole dial budget — here the default two minutes,
// for which a retried mismatch would hang a misconfigured deployment.
func TestProcContractMismatchFailsAtOnce(t *testing.T) {
	p := buildProvision(t, 10, 4)
	wrong, err := NewWorker(p, 0, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	dial := func(int) (net.Conn, error) {
		cc, wc := net.Pipe()
		go wrong.ServeConn(wc)
		return cc, nil
	}
	start := time.Now()
	_, err = NewCoordinator(p, Config{Shards: 2, Dial: dial, HealthEvery: -1})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("NewCoordinator: %v; want the shard-count mismatch", err)
	}
	if strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("NewCoordinator: %v; a contract mismatch was retried", err)
	}
	if limit := time.Second; took > limit {
		t.Fatalf("a contract mismatch failed after %v under the default dial budget, want within %v", took, limit)
	}
}

// TestProcHungWorkerFailsInsideBudget: a dial that succeeds against a
// worker that never answers — a Fleet's socket in front of a process that
// hangs while provisioning — fails the attach at the dial budget's
// deadline, not never.
func TestProcHungWorkerFailsInsideBudget(t *testing.T) {
	p := buildProvision(t, 10, 4)
	var mu sync.Mutex
	var held []net.Conn // the worker ends, open and unread
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	dial := func(int) (net.Conn, error) {
		cc, wc := net.Pipe()
		mu.Lock()
		held = append(held, wc)
		mu.Unlock()
		return cc, nil
	}
	cfg := Config{Shards: 2, Dial: dial, DialBudget: 200 * time.Millisecond, HealthEvery: -1}
	start := time.Now()
	_, err := NewCoordinator(p, cfg)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "attach budget exhausted") {
		t.Fatalf("NewCoordinator over a hung worker: %v; want an exhausted attach budget", err)
	}
	if limit := cfg.DialBudget + 2*maxAttachPause; took > limit {
		t.Fatalf("NewCoordinator gave up after %v, budget %v plus two attach pauses is %v", took, cfg.DialBudget, limit)
	}
}

// TestProcForeignRegistryRejected: a route crosses the wire as its LSPs'
// IDs, which name the same paths only over the same LSP table. A worker
// provisioned with EdgeLSPs alone and a coordinator provisioned with the
// subpath closure too, on the same graph, agree on shards and topology — every
// field the hello carried before it carried the table — and must still not
// attach: the error gives both lengths and both digests. On this graph the
// closure adds no path, only another order, so the lengths agree too and
// the digest alone tells the tables apart. The matching deployment attaches.
func TestProcForeignRegistryRejected(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 4)
	provision := func(rcfg rbpc.Config) rbpc.Provision {
		sys, err := rbpc.NewSystem(g, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Export()
	}
	edgeOnly, closed := provision(rbpc.Config{EdgeLSPs: true}), provision(rbpc.DefaultConfig())
	if registryDigest(edgeOnly.BaseLSPs) == registryDigest(closed.BaseLSPs) {
		t.Fatal("vacuous: the two configurations provision one table")
	}
	f := newPipeFarm(t, edgeOnly, Config{Shards: 2})
	cfg := testConfig(f, 2)
	cfg.DialBudget = 200 * time.Millisecond

	c, err := NewCoordinator(closed, cfg)
	if err == nil {
		c.Close()
		t.Fatal("a coordinator attached workers provisioned with a different LSP table")
	}
	for _, p := range []rbpc.Provision{edgeOnly, closed} {
		if want := fmt.Sprintf("LSPs:%d LSPSum:%d", len(p.BaseLSPs), registryDigest(p.BaseLSPs)); !strings.Contains(err.Error(), want) {
			t.Errorf("attach error %q does not give %q", err, want)
		}
	}

	c, err = NewCoordinator(edgeOnly, cfg)
	if err != nil {
		t.Fatalf("the matching deployment did not attach: %v", err)
	}
	c.Close()
}

// TestProcWorkerRequiresEdgeLSPs: a worker's engine resolves through the
// provision's LSP table and signals nothing, so NewWorker refuses a
// provision in which some link has no 1-hop base path — here the link that
// is dearer than the way round it — naming the field that provisions one.
func TestProcWorkerRequiresEdgeLSPs(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	sys, err := rbpc.NewSystem(g, rbpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(sys.Export(), 0, Config{Shards: 2})
	if err == nil {
		w.Close()
		t.Fatal("NewWorker accepted a provision without EdgeLSPs")
	}
	if !strings.Contains(err.Error(), "rbpc.Config.EdgeLSPs") {
		t.Fatalf("NewWorker: %v; the error does not name rbpc.Config.EdgeLSPs", err)
	}
}

// TestProcNonSourceSchemeRejected: the snapshot wire format ships
// overlays, not local plans, so neither end of the transport accepts a
// non-source engine template.
func TestProcNonSourceSchemeRejected(t *testing.T) {
	p := buildProvision(t, 10, 4)
	f := newPipeFarm(t, p, Config{Shards: 2})
	for _, sch := range []engine.Scheme{engine.SchemeLocal, engine.SchemeBypass, engine.SchemeHybrid} {
		cfg := testConfig(f, 2)
		cfg.Engine.Scheme = sch
		if w, err := NewWorker(p, 0, cfg); err == nil {
			w.Close()
			t.Fatalf("NewWorker accepted scheme %v", sch)
		}
		if c, err := NewCoordinator(p, cfg); err == nil {
			c.Close()
			t.Fatalf("NewCoordinator accepted scheme %v", sch)
		}
	}
}

// TestProcFlushBarrierOrdersReplicas hammers the burst→flush→view cycle:
// after every flush the merged view must reflect exactly the events sent
// before it (snapshot frames precede flush acks on the control
// connection).
func TestProcFlushBarrierOrdersReplicas(t *testing.T) {
	const shards = 3
	p := buildProvision(t, 12, 6)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	model := map[graph.EdgeID]bool{}
	edges := []graph.EdgeID{1, 4, 9, 4, 1, 2, 9, 2}
	for _, ed := range edges {
		if model[ed] {
			proc.Repair(ed)
			delete(model, ed)
		} else {
			proc.Fail(ed)
			model[ed] = true
		}
		proc.Flush()
		v, ok := proc.View()
		if !ok {
			t.Fatal("torn view immediately after flush")
		}
		got := v.Shard(0).Failed()
		if len(got) != len(model) {
			t.Fatalf("view failed-set %v, model has %d edges", got, len(model))
		}
		for _, e := range got {
			if !model[e] {
				t.Fatalf("view failed-set %v contains %d not in model", got, e)
			}
		}
	}
}

// TestBurstsAreAtomicOnEveryReplica: a burst crosses the wire as one frame
// and every worker's engine publishes it as one transition, so no replica
// the coordinator decodes (Config.OnEpoch) holds part of a burst. Three
// disjoint three-link groups are failed and repaired as bursts, no barrier
// between the groups.
func TestBurstsAreAtomicOnEveryReplica(t *testing.T) {
	const shards = 3
	p := buildProvision(t, 16, 3)
	groups := [][]graph.EdgeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	farm := newPipeFarm(t, p, Config{Shards: shards})
	cfg := testConfig(farm, shards)
	var mu sync.Mutex // one reader goroutine per worker taps
	replicas := 0
	var torn error
	cfg.OnEpoch = func(worker int, s *engine.Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		replicas++
		for _, grp := range groups {
			n := 0
			for _, ed := range grp {
				if slices.Contains(s.Failed(), ed) {
					n++
				}
			}
			if n != 0 && n != len(grp) && torn == nil {
				torn = fmt.Errorf("worker %d's replica of epoch %d fails %v: part of burst %v", worker, s.Epoch(), s.Failed(), grp)
			}
		}
	}
	proc, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()

	const rounds = 60
	burst := make([]failure.Event, 3)
	for range rounds {
		for _, repair := range []bool{false, true} {
			for _, grp := range groups {
				for i, ed := range grp {
					burst[i] = failure.Event{Repair: repair, Edge: ed}
				}
				proc.ApplyEvents(burst)
			}
			proc.Flush()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if torn != nil {
		t.Fatal(torn)
	}
	if replicas < 2*rounds*shards {
		t.Fatalf("%d replicas decoded from %d workers over %d rounds", replicas, shards, rounds)
	}
}

// TestSelfPairVerdictMatchesInProcess: a pair whose source is its
// destination has no route and is not unroutable — the engine's pool says
// so for a burst as for a single query, in process and over a replica
// alike, or the same burst raises Stats().Unroutable in one mode and not
// the other.
func TestSelfPairVerdictMatchesInProcess(t *testing.T) {
	const shards = 2
	p := buildProvision(t, 12, 9)
	inproc, err := shard.New(p, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	farm := newPipeFarm(t, p, Config{Shards: shards})
	wire, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()

	n := p.Graph.Order()
	var pairs []rbpc.Pair
	for s := 0; s < n; s++ {
		src := graph.NodeID(s)
		pairs = append(pairs, rbpc.Pair{Src: src, Dst: src}, rbpc.Pair{Src: src, Dst: graph.NodeID((s + 1) % n)})
	}
	stats := map[string]shard.Stats{}
	for name, c := range map[string]*shard.Coordinator{"in-process": inproc, "wire": wire.Coordinator} {
		if got := c.SubmitBatch(pairs); got != len(pairs) {
			t.Fatalf("%s: %d of %d pairs accepted", name, got, len(pairs))
		}
		c.Drain()
		stats[name] = c.Stats()
	}
	in, wr := stats["in-process"], stats["wire"]
	if in.Queries != int64(len(pairs)) || wr.Queries != in.Queries {
		t.Errorf("Queries: in-process %d, wire %d, want %d both", in.Queries, wr.Queries, len(pairs))
	}
	if in.Unroutable != 0 || wr.Unroutable != in.Unroutable {
		t.Errorf("Unroutable: in-process %d, wire %d, want 0 both (a self-pair is not unroutable)", in.Unroutable, wr.Unroutable)
	}
}

// TestSharedBatchExactlyOnce is the pipe twin of the in-process test of
// the same name: every client's pool serves its own part out of the one
// shared slice, so each worker's part must be answered exactly once and
// the cold tier must answer exactly the rest — also when a worker dies
// between the submit and the Drain (its part was admitted, and its pool
// answers it from the last replica), and while a worker is down, when its
// part diverts and nobody answers it twice. The per-worker Queries
// counters count the answers.
func TestSharedBatchExactlyOnce(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 9)
	rcfg := rbpc.DefaultConfig()
	rcfg.Sources = []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	n := g.Order()
	var pairs []rbpc.Pair
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			pr := rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)}
			pairs = append(pairs, pr)
			if (s*n+d)%3 == 0 {
				pairs = append(pairs, pr)
			}
		}
	}
	for _, shards := range []int{3, 8} {
		farm := newPipeFarm(t, p, Config{Shards: shards})
		cfg := testConfig(farm, shards)
		proc, err := NewCoordinator(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		handed := make([]int64, shards)
		var cold int64
		for _, pr := range pairs {
			if int(pr.Src) < len(rcfg.Sources) {
				handed[proc.Owner(pr.Src)]++
			} else {
				cold++
			}
		}
		victim := -1
		largest := 0
		for i := range handed {
			if handed[i] > handed[largest] {
				largest = i
			}
		}
		for round := 0; round < 3; round++ {
			before := proc.Stats()
			if got := proc.SubmitBatch(pairs); got != len(pairs) {
				t.Fatalf("shards=%d round %d: %d of %d pairs accepted", shards, round, got, len(pairs))
			}
			if round == 1 {
				// The worker with the largest part dies after its part was
				// admitted, before the Drain.
				farm.kill(largest)
				for deadline := time.Now().Add(2 * time.Second); proc.Shard(largest).Alive() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if proc.Shard(largest).Alive() {
					t.Fatalf("shards=%d: worker %d never marked dead", shards, largest)
				}
			}
			proc.Drain()
			after := proc.Stats()
			wantCold := cold
			for i := range handed {
				want := handed[i]
				if i == victim {
					wantCold += want // its part diverted
					want = 0
				}
				if got := after.PerShard[i].Queries - before.PerShard[i].Queries; got != want {
					t.Errorf("shards=%d round %d: worker %d answered %d queries, want %d", shards, round, i, got, want)
				}
			}
			if got := after.Cold.Queries - before.Cold.Queries; got != wantCold {
				t.Errorf("shards=%d round %d: the cold tier took %d queries, want %d", shards, round, got, wantCold)
			}
			if got := after.Queries - before.Queries; got != int64(len(pairs)) {
				t.Errorf("shards=%d round %d: Stats().Queries rose by %d for %d pairs", shards, round, got, len(pairs))
			}
			if got := after.Dropped - before.Dropped; got != 0 {
				t.Errorf("shards=%d round %d: %d queries dropped", shards, round, got)
			}
			if round == 1 {
				victim = largest // the third round submits while it is down
			}
		}
		proc.Close()
	}
}

// TestSubmitBatchAllocs: over a pipe, as in process, a burst costs the
// coordinator no allocation — each owner's client hands the caller's slice
// to its pool, which answers it from the replica.
func TestSubmitBatchAllocs(t *testing.T) {
	const shards = 3
	p := buildProvision(t, 14, 9)
	farm := newPipeFarm(t, p, Config{Shards: shards})
	proc, err := NewCoordinator(p, testConfig(farm, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	n := p.Graph.Order()
	var pairs []rbpc.Pair
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			pairs = append(pairs, rbpc.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
		}
	}
	accepted := 0
	submit := func() {
		accepted += proc.SubmitBatch(pairs)
		proc.Drain() // keeps the queues from filling
	}
	submit() // warm-up
	drain := testing.AllocsPerRun(20, proc.Drain)
	if a := testing.AllocsPerRun(20, submit) - drain; a > 0 {
		t.Errorf("SubmitBatch allocates %.1f times a burst over a pipe, want none", a)
	}
	if st := proc.Stats(); st.Queries != int64(accepted) || st.Dropped != 0 {
		t.Errorf("%d queries answered and %d dropped of %d accepted", st.Queries, st.Dropped, accepted)
	}
}
