package main

import (
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/shard"
	"rbpc/internal/topology"
)

type shape int

const (
	shapeEngine shape = iota // one engine.Engine, dense rows
	shapeShard               // shard.Coordinator, two in-process shards, delta rows
	shapeWire                // shardrpc.Coordinator, two worker processes over Unix sockets
)

type workloadDef struct {
	name   string
	shape  shape
	scheme engine.Scheme
}

// The workloads differ in deployment shape; every one runs the same
// phases, so every metric is defined on each and the gap between two
// workloads is the cost of the layer that differs. The single engine runs
// the paper's hybrid scheme, the only one that builds local plans, patches
// the ILM and switches over; the source scheme it falls back on is what
// both sharded shapes run.
var workloads = []workloadDef{
	{"engine_hybrid", shapeEngine, engine.SchemeHybrid},
	{"shard_inproc", shapeShard, engine.SchemeSource},
	{"shard_wire", shapeWire, engine.SchemeSource},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run's fixed conditions. Only seed, seconds and trace
// come from the command line; the tests shrink the rest.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool

	topology string
	scale    float64
	topoSeed int64 // the topology is a fixed condition, like its scale
	setups   int
	rate     float64       // open-loop offered load, queries per second
	batch    int           // pairs per submitted batch
	think    time.Duration // foreground think time
	pipe     bool          // wire shape over net.Pipe to in-process workers (tests)
	wrong    bool          // test hook: corrupt the reference so the oracles must fire
	outDir   string        // trace and result files
	tmpDir   string        // worker sockets; relative, so that socket paths stay short
}

func defaultConfig() runConfig {
	return runConfig{
		seed: 1, seconds: 36,
		topology: "as", scale: 0.05, topoSeed: 1, setups: 5,
		rate: 50_000, batch: 512,
		think:  time.Millisecond,
		outDir: filepath.Join("bench", "out"), tmpDir: filepath.Join(buildDir, "tmp"),
	}
}

// Phase shares of the measured seconds. An untraced run spends all of
// them on the two phases the end-to-end metrics are read from; a traced
// run also runs the load phase, whose figures are per-layer ones.
const (
	shareBulk   = 0.30
	shareSerial = 0.70

	tracedShareLoad   = 0.30
	tracedShareBulk   = 0.20
	tracedShareSerial = 0.50
)

func buildTopology(cfg runConfig) (*graph.Graph, error) {
	return topology.Build(cfg.topology, cfg.scale, cfg.topoSeed)
}

// Fixed conditions of the churn and of the phases built on it.
const (
	populationSize = 24                     // links the churn schedules fail
	maxDown        = 3                      // links down at once, at most
	loadCycles     = 2                      // cycles of the schedule spread over the load phase
	bulkWindow     = 125 * time.Millisecond // the bulk phase's rate is the median over these
)

// failurePopulation is the fixed set of links the churn schedules fail:
// every (links ÷ populationSize)-th link in order of how many provisioned
// pairs its failure interrupts, so the set spans the topology's range
// from leaf links to core links, leaving out bridges. It is a fixed
// condition, like the topology it is computed from. How long a failure
// takes to restore depends first on how many pairs cross the link, and
// that count is heavy-tailed on a power-law graph; were every run to draw
// its few hundred failures from all links, the medians of two seeds
// would differ by which links they happened to draw, not by anything the
// system did.
func failurePopulation(g *graph.Graph, o *oracle, affected func(graph.EdgeID) int) []graph.EdgeID {
	var links []graph.EdgeID
	for e := 0; e < g.Size(); e++ {
		if o.connected(downSet{graph.EdgeID(e)}) {
			links = append(links, graph.EdgeID(e))
		}
	}
	sort.Slice(links, func(i, j int) bool {
		ai, aj := affected(links[i]), affected(links[j])
		if ai != aj {
			return ai < aj
		}
		return links[i] < links[j]
	})
	n := min(populationSize, len(links))
	pop := make([]graph.EdgeID, n)
	for i := range pop {
		pop[i] = links[(2*i+1)*len(links)/(2*n)]
	}
	return pop
}

// episodes groups the population into the fixed failure episodes the
// churn schedules are made of: populationSize ÷ maxDown groups of maxDown
// links, one from each maxDown-th of the population (which is ordered from
// leaf links to core links), whose joint failure keeps the graph
// connected. Every pair therefore stays restorable, and an unroutable
// answer or an unrestored probe is a failed operation, not an artefact of
// the input.
func episodes(pop []graph.EdgeID, o *oracle) []downSet {
	n := len(pop) / maxDown
	used := make([]bool, len(pop))
	var eps []downSet
	for i := 0; i < n; i++ {
		ep := downSet{}
		for band := 0; band < maxDown; band++ {
			for k := 0; k < n; k++ {
				j := band*n + (i+k)%n
				if !used[j] && o.connected(append(ep[:len(ep):len(ep)], pop[j])) {
					used[j] = true
					ep = append(ep, pop[j])
					break
				}
			}
		}
		if len(ep) == maxDown {
			eps = append(eps, ep)
		}
	}
	return eps
}

// churn generates the churn schedule cycle by cycle. One cycle plays
// every episode once, in an order drawn from the seed. An episode starts
// from the pristine network, fails its links one after the other (so the
// k-th failure is restored with k links down) and repairs them in reverse
// order, back to pristine. What a transition costs depends on the links
// already down, on the epoch it starts from and on what the plan cache
// holds; with episodes every run measures the same transitions from the
// same states, and the seed decides only their order. A schedule that
// draws links at random (failure.ChurnSchedule, or any walk over the
// population) measures another mix of transitions on every seed: the same
// link then took between 1 and 27 ms to restore within one run, and the
// medians of two seeds differed by the mix, not by anything the system
// did.
type churn struct {
	eps []downSet
	rng *rand.Rand
}

func newChurn(eps []downSet, seed int64) *churn {
	return &churn{eps: eps, rng: rand.New(rand.NewSource(seed))}
}

// cycle returns the events of the next cycle.
func (c *churn) cycle() []failure.Event {
	var evs []failure.Event
	for _, i := range c.rng.Perm(len(c.eps)) {
		ep := c.eps[i]
		for _, e := range ep {
			evs = append(evs, failure.Event{Edge: e})
		}
		for k := len(ep) - 1; k >= 0; k-- {
			evs = append(evs, failure.Event{Repair: true, Edge: ep[k]})
		}
	}
	return evs
}

// spreadFailures picks n links whose joint failure keeps the graph
// connected, from the middle of each n-th of the population (which is
// ordered from leaf links to core links): the failed-set the bulk phase
// serves under. It is a fixed condition: how many rows three failures
// rewrite, and so how far the row lookups scatter over memory, follows the
// links chosen, and saturation rates of two seeds are only comparable on
// the same rows.
func spreadFailures(pop []graph.EdgeID, o *oracle, n int) downSet {
	for shift := 0; ; shift++ {
		var m downSet
		for i := 0; i < n; i++ {
			m = append(m, pop[((2*i+1)*len(pop)/(2*n)+shift)%len(pop)])
		}
		if o.connected(m) {
			return m
		}
	}
}

// seededFailures draws n links whose joint failure keeps the graph
// connected, one from each n-th of the population (which is ordered from
// leaf links to core links), so that every seed leaves the rows about
// equally far from the pristine ones.
func seededFailures(pop []graph.EdgeID, o *oracle, n int, seed int64) downSet {
	rng := rand.New(rand.NewSource(seed))
	for {
		var m downSet
		for i := 0; i < n; i++ {
			lo, hi := i*len(pop)/n, (i+1)*len(pop)/n
			m = append(m, pop[lo+rng.Intn(max(hi-lo, 1))])
		}
		if o.connected(m) {
			return m
		}
	}
}

// failAll injects every link of the set and flushes.
func (r *run) failAll(m downSet) {
	for _, e := range m {
		r.be.Fail(e)
	}
	r.be.Flush()
}

// downSet is the injector's model of the links currently down.
type downSet []graph.EdgeID

func (m *downSet) apply(ev failure.Event) {
	if !ev.Repair {
		*m = append(*m, ev.Edge)
		return
	}
	for i, e := range *m {
		if e == ev.Edge {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return
		}
	}
}

// pairStream draws uniform random ordered pairs.
type pairStream struct {
	rng *rand.Rand
	n   int
}

func (p *pairStream) next() rbpc.Pair {
	for {
		s, d := graph.NodeID(p.rng.Intn(p.n)), graph.NodeID(p.rng.Intn(p.n))
		if s != d {
			return rbpc.Pair{Src: s, Dst: d}
		}
	}
}

// batch allocates a fresh slice every time: SubmitBatch takes ownership.
func (p *pairStream) batch(n int) []rbpc.Pair {
	out := make([]rbpc.Pair, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// pacer is the open-loop schedule: request i is due at start + i×every,
// whatever happened to the requests before it.
type pacer struct {
	start time.Time
	every time.Duration
	i     int64
	lag   samples // how late each request left, ns
}

// wait sleeps until the next request is due and records how late the
// generator is. It never skips a request: after a stall the backlog goes
// out back to back, each one timed from when it was due.
func (p *pacer) wait() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.every)
	p.i++
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	p.lag.add(float64(max(time.Since(due), 0)))
	return due
}

// window cuts a phase into equal stretches and records the throughput of
// each, so that the phase reports the median stretch: one garbage
// collection or one timed-out probe costs the stretch it falls in, not
// the whole figure.
type window struct {
	every time.Duration
	start time.Time
	count int64
}

// tick closes the current window if it is over. count is only read at a
// window boundary (on the wire it is a Stats round trip).
func (w *window) tick(rates *samples, count func() int64) {
	now := time.Now()
	if el := now.Sub(w.start); el >= w.every {
		c := count()
		rates.add(perSec(float64(c-w.count), el))
		w.start, w.count = now, c
	}
}

// phaseResult carries what one phase measured.
type phaseResult struct {
	wall time.Duration

	offered, accepted int64 // load and bulk: pairs submitted / admitted
	answers           int64 // asynchronous answers delivered in the phase

	fg       samples // foreground latency, ns
	fgShed   int64
	fgAnswer []answer
	asked    []answer // serial: synchronous answers between events

	rates samples // answers/s per window (bulk), events/s per cycle of the schedule (serial)

	events int
	// serial: t0 → Flush return, ns, kept apart by kind of event. Repairs
	// are several times cheaper than failures, so the median of the mix
	// sits in the gap between the two and jumps with their proportion.
	flush, flushRepair samples
	restore            samples // ns
	probes             []*probeRecord
	polls              int64
}

// probeRecord is the miss accounting of one injected failure.
type probeRecord struct {
	ep       *eventProbe
	edge     graph.EdgeID
	expected int           // pairs the prober tries; all restorable, since the schedule keeps the graph connected
	flush    time.Duration // serial phase: injection → Flush return
	doneAt   time.Time     // the prober returned
	// repairedAt is when the schedule repaired the link again (zero if it
	// stayed down to the end of the phase).
	repairedAt time.Time
	// serial phase: of the pairs the prober gave up on, those a second
	// pass after the flush found restored, and those it did not.
	late, lost int
}

// probed counts probed pairs, those that recorded no delivery within the
// prober's 250 ms (timeouts), and among these the ones the serial phase's
// second pass found unrestored even after the flush (lost). A link the
// schedule repaired while its prober was still polling is left out: the
// prober only accepts answers from epochs that still hold the failure, so
// it times out on a link that is simply up again.
func (r phaseResult) probed() (attempted, timeouts, lost int) {
	for _, p := range r.probes {
		if !p.repairedAt.IsZero() && p.repairedAt.Before(p.doneAt) {
			continue
		}
		attempted += p.expected
		timeouts += max(p.expected-len(p.ep.times), 0)
		lost += p.lost
	}
	return
}

// run is one workload execution.
type run struct {
	cfg runConfig
	def workloadDef
	w   *world
	be  backend
	o   *oracle
	tr  *tracer
	pop []graph.EdgeID // the failure population
	eps []downSet      // the population grouped into failure episodes
	req atomic.Int64   // request id source for spans: one per churn event or batch

	load, bulk, serial phaseResult
	stats              [4]shard.Stats // after set-up, load, bulk, serial
	serialStats        shard.Stats    // at the end of the serial phase, before the links are repaired
	loadLag            samples        // open-loop generator lateness, ns
	bulkFrom           int            // span count when the bulk phase began
	serialFrom         int            // span count when the serial phase began
}

func (r *run) nextReq() int64 { return r.req.Add(1) }

// call times one call into the backend's layer as a span.
func (r *run) call(name string, parent int, req int64, f func()) {
	if r.tr == nil {
		f()
		return
	}
	id := r.tr.begin(r.be.layer()+"."+name, parent, req)
	f()
	r.tr.end(id)
}

// inject applies one churn event and, for a failure, starts the prober.
// It returns without waiting for the flush or the probe.
func (r *run) inject(ev failure.Event, p *prober, res *phaseResult, wg *sync.WaitGroup, root int, req int64) *probeRecord {
	res.events++
	if ev.Repair {
		for _, pr := range res.probes {
			if pr.edge == ev.Edge && pr.repairedAt.IsZero() {
				pr.repairedAt = time.Now()
			}
		}
		r.call("repair", root, req, func() { r.be.Repair(ev.Edge) })
		return nil
	}
	t0 := time.Now()
	rec := &probeRecord{ep: &eventProbe{prober: p}, edge: ev.Edge,
		expected: probedPairs(len(r.be.AffectedPairs(ev.Edge)))}
	res.probes = append(res.probes, rec)
	r.call("fail", root, req, func() { r.be.Fail(ev.Edge) })
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := r.tr.begin("probe.restore", root, req)
		r.be.restore(rec.ep, ev.Edge, t0)
		rec.doneAt = time.Now()
		r.tr.end(id)
	}()
	return rec
}

func (r *run) newProber() *prober {
	p := &prober{be: r.be, scheme: r.def.scheme}
	switch b := r.be.(type) {
	case engineBE:
		p.record = func(_ graph.NodeID, d time.Duration) { b.e.RecordRestore(d) }
	case shardBE:
		p.record = b.c.RecordRestore
	case wireBE:
		p.record = b.c.RecordRestore
	}
	return p
}

// settle repairs whatever is still down and flushes.
func (r *run) settle(m downSet) {
	for _, e := range m {
		r.be.Repair(e)
	}
	r.be.Flush()
}

// loadPhase offers a fixed open-loop query rate while the injector
// applies one churn event per tick and a foreground client asks one
// query per think time. Restoration here is restoration beside readers.
func (r *run) loadPhase(d time.Duration) {
	res := &r.load
	g := r.w.g
	// Whole cycles of the schedule, evenly spaced over the phase: every
	// episode plays the same number of times beside the readers, whatever
	// the seed.
	sched := newChurn(r.eps, r.cfg.seed*1000+1)
	var evs []failure.Event
	for c := 0; c < loadCycles; c++ {
		evs = append(evs, sched.cycle()...)
	}
	churnEvery := d / time.Duration(len(evs)+1)
	p := r.newProber()
	asyncBefore, fgAsync := r.be.answered(), int64(0)
	start := time.Now()
	deadline := start.Add(d)

	var bg, probes sync.WaitGroup

	// Churn injector: event j is due at start + (j+1)×churnEvery.
	var model downSet
	bg.Add(1)
	go func() {
		defer bg.Done()
		pc := pacer{start: start.Add(churnEvery), every: churnEvery}
		for _, ev := range evs {
			if due := pc.wait(); due.After(deadline) {
				return
			}
			req := r.nextReq()
			root := r.tr.begin("event", 0, req)
			r.inject(ev, p, res, &probes, root, req)
			r.tr.end(root)
			model.apply(ev)
		}
	}()

	// Foreground client: closed loop, one query per think time, timed
	// from send.
	bg.Add(1)
	go func() {
		defer bg.Done()
		ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 2)), g.Order()}
		for time.Now().Before(deadline) {
			pr := ps.next()
			id := r.tr.begin(r.be.layer()+".ask", 0, 0)
			t0 := time.Now()
			ans, ok := r.be.ask(pr.Src, pr.Dst)
			lat := time.Since(t0)
			r.tr.end(id)
			if ok {
				res.fg.addDur(lat)
				res.fgAnswer = append(res.fgAnswer, newAnswer(ans))
				if r.def.shape != shapeWire {
					fgAsync++
				}
			} else {
				res.fgShed++
			}
			time.Sleep(r.cfg.think)
		}
	}()

	// Open-loop generator, on this goroutine.
	ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 3)), g.Order()}
	every := time.Duration(float64(r.cfg.batch) / r.cfg.rate * float64(time.Second))
	pc := pacer{start: start, every: every}
	for {
		if due := pc.wait(); due.After(deadline) {
			break
		}
		pairs := ps.batch(r.cfg.batch)
		req := r.nextReq()
		root := r.tr.begin("batch", 0, req)
		r.call("submit_batch", root, req, func() { res.accepted += int64(r.be.SubmitBatch(pairs)) })
		r.tr.end(root)
		res.offered += int64(len(pairs))
	}
	bg.Wait()
	probes.Wait()
	r.settle(model)
	r.be.Drain()
	res.wall = time.Since(start)
	res.answers = r.be.answered() - asyncBefore - fgAsync
	res.restore = p.samples
	res.polls = p.polls.Load()
	r.loadLag = pc.lag
}

// A refused batch is offered again at once, up to eagerTries times, and
// only then does the bulk generator stay away for backoff. An engine keeps
// one queue per query worker and admits batches to them in turn, so the
// refusal of one attempt says that one queue is full, not that all are:
// a generator that slept after every refusal fed the other worker one
// batch per sleep, and the phase ran for seconds at a time at the speed of
// one worker (17 against 30 million answers a second, window by window).
// Spinning on the refusals for good would take a core from the workers
// the phase is measuring; full queues hold several backoffs' worth of work.
const (
	eagerTries = 8
	backoff    = 100 * time.Microsecond
)

// bulkPool is the number of distinct batches the bulk phase cycles
// through: a million pairs at the default batch size, several times the
// number of ordered pairs of the topology.
const bulkPool = 2048

// bulkPhase fails three fixed links once, then pushes batches as fast as
// admission allows with no churn: the query path does all the work. A
// batch that is not admitted is back-pressure: yield and offer it again.
func (r *run) bulkPhase(d time.Duration) {
	res := &r.bulk
	g := r.w.g
	model := spreadFailures(r.pop, r.o, maxDown)
	r.failAll(model)

	r.bulkFrom = r.tr.mark()
	// Draw the pairs before the clock starts: at saturation the draw
	// would cost the generator a third of a core that belongs to the
	// workers being measured. The batches are slices of the pool handed
	// over as they are. SubmitBatch takes ownership of its slice so that
	// the caller does not write to it while a worker reads; the pool is
	// never written again, and a fresh copy per batch (200 MB/s at this
	// rate) made the collector run for a third of the phase, marking the
	// system's heap on the generator's account.
	ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 5)), g.Order()}
	pool := ps.batch(bulkPool * r.cfg.batch)
	next := 0
	before := r.be.answered()
	start := time.Now()
	deadline := start.Add(d)
	win := window{every: bulkWindow, start: start, count: before}
	for time.Now().Before(deadline) {
		win.tick(&res.rates, r.be.answered)
		pairs := pool[next*r.cfg.batch : (next+1)*r.cfg.batch : (next+1)*r.cfg.batch]
		next = (next + 1) % bulkPool
		req := r.nextReq()
		root := r.tr.begin("batch", 0, req)
		r.call("submit_batch", root, req, func() {
			for try := 1; ; try++ {
				if n := r.be.SubmitBatch(pairs); n > 0 {
					res.accepted += int64(n)
					return
				}
				if try%eagerTries != 0 {
					continue
				}
				if !time.Now().Before(deadline) {
					return
				}
				time.Sleep(backoff)
			}
		})
		r.tr.end(root)
		res.offered += int64(len(pairs))
	}
	r.call("drain", 0, 0, r.be.Drain)
	res.wall = time.Since(start)
	res.answers = r.be.answered() - before
	if len(res.rates) == 0 {
		// Not one whole window fitted (the tests' short phases).
		res.rates.add(perSec(float64(res.answers), res.wall))
	}
	r.settle(model)
}

// askedPerEvent is how many synchronous queries follow each serial event,
// kept for the oracle: answers under every failed-set the phase visits.
const askedPerEvent = 2

// serialPhase applies churn events one at a time with no query load: the
// burst path does all the work. Per event: t0, inject, start the prober,
// Flush, record now − t0, join the prober. The throughput is taken per
// cycle of the schedule, every cycle being the same work. One cycle runs
// before the clock starts: label-switched paths that restoration signals
// on demand stay in the network, so the first time an episode plays is
// lazy set-up, not the steady state.
func (r *run) serialPhase(d time.Duration) {
	res := &r.serial
	p := r.newProber()
	again := r.newProber()
	again.record = func(graph.NodeID, time.Duration) {}
	sched := newChurn(r.eps, r.cfg.seed*1000+6)
	ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 4)), r.w.g.Order()}
	var model downSet
	var late samples

	event := func(ev failure.Event, res *phaseResult) {
		var wg sync.WaitGroup
		req := r.nextReq()
		root := r.tr.begin("event", 0, req)
		t0 := time.Now()
		rec := r.inject(ev, p, res, &wg, root, req)
		r.call("flush", root, req, r.be.Flush)
		if rec == nil {
			res.flushRepair.addDur(time.Since(t0))
		} else {
			rec.flush = time.Since(t0)
			res.flush.addDur(rec.flush)
		}
		wg.Wait()
		r.tr.end(root)
		model.apply(ev)
		if rec != nil && len(rec.ep.times) < rec.expected {
			// The prober gave up on some pair after its 250 ms. Now that
			// the flush has returned, one more pass tells a restoration
			// that came late (a sample beyond the timeout) from one that
			// never came (a failed operation).
			pass := &eventProbe{prober: again}
			r.be.restore(pass, ev.Edge, t0)
			missed := rec.expected - len(rec.ep.times)
			rec.lost = max(rec.expected-len(pass.times), 0)
			rec.late = missed - rec.lost
			so := pass.times.sorted()
			late = append(late, so[max(len(so)-rec.late, 0):]...)
		}
		for i := 0; i < askedPerEvent; i++ {
			pr := ps.next()
			res.asked = append(res.asked, newAnswer(r.be.Query(pr.Src, pr.Dst)))
		}
	}

	var warm phaseResult
	for _, ev := range sched.cycle() {
		event(ev, &warm)
	}
	p.samples, late = nil, nil
	p.polls.Store(0)

	r.serialFrom = r.tr.mark()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		evs := sched.cycle()
		cycleStart, done := time.Now(), 0
		for _, ev := range evs {
			// An episode that has begun is played to its end: the next
			// phase starts from the pristine network.
			if len(model) == 0 && !time.Now().Before(deadline) {
				break
			}
			event(ev, res)
			done++
		}
		if done == len(evs) {
			res.rates.add(perSec(float64(done), time.Since(cycleStart)))
		}
	}
	res.wall = time.Since(start)
	if len(res.rates) == 0 {
		// Not one whole cycle fitted (the tests' short phases).
		res.rates.add(perSec(float64(res.events), res.wall))
	}
	res.restore = append(p.samples, late...)
	res.polls = p.polls.Load()
	r.serialStats = r.be.Stats()
}

// equivalence fails three seeded links and checks that a thousand seeded
// pairs are answered with exactly the reference cost, through the
// synchronous path of this shape. Every shape is held to the same
// independent reference, so their costs are bit-identical to each other.
func (r *run) equivalence() (checked int, violations []string) {
	g := r.w.g
	model := seededFailures(r.pop, r.o, maxDown, r.cfg.seed*1000+7)
	r.failAll(model)
	if r.def.scheme == engine.SchemeHybrid {
		// Let every flood horizon pass so the converged answers are served.
		time.Sleep(20 * time.Millisecond)
	}
	ps := pairStream{rand.New(rand.NewSource(r.cfg.seed*1000 + 8)), g.Order()}
	for i := 0; i < 1000; i++ {
		pr := ps.next()
		res := r.be.Query(pr.Src, pr.Dst)
		checked++
		if v, _ := r.o.check(newAnswer(res)); v != "" {
			violations = append(violations, "equivalence: "+v)
		}
	}
	r.settle(model)
	return
}
