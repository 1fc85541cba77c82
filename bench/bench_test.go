package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // 1..100, unsorted
		s.add(float64(i))
	}
	so := s.sorted()
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}, {1, 1}} {
		if got := pct(so, c.p); got != c.want {
			t.Errorf("pct(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// No interpolation, no bucket edges: a value that was never sampled
	// is never reported.
	if got := pct(samples{1, 1000}, 50); got != 1 {
		t.Errorf("pct({1,1000}, 50) = %v, want 1", got)
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct of nothing = %v, want 0", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},  // p50 leaves 5 beyond
		{19, 0, false},  // p50 is rank 10, 9 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{40, 75, true},  // p75 is rank 30, 10 beyond; p90 leaves 4
		{100, 90, true}, // p90 leaves 10, p95 leaves 5
		{1000, 99, true},
		{10000, 99.9, true},
		{30000, 99.9, true}, // p99.99 is rank 29997: 3 beyond
		{100000, 99.99, true},
	} {
		got, ok := highestPct(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPct(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.Share-want) > 1e-12 {
		t.Errorf("share = %v, want %v", s.Share, want)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: two runs extrapolate.
	s = spreadOf([]float64{1, 3})
	if s.Q1 != 0.5 || s.Median != 2 || s.Q3 != 3.5 {
		t.Errorf("two-point quartiles = %v %v %v, want 0.5 2 3.5", s.Q1, s.Median, s.Q3)
	}
}

func TestPacerCountsLatenessFromTheSchedule(t *testing.T) {
	// The pacer starts 30 ms behind a 10 ms schedule: requests 0..3 are
	// already due and must leave at once, each timed from when it was
	// due, not from when the previous one left; none is skipped.
	start := time.Now().Add(-30 * time.Millisecond)
	p := pacer{start: start, every: 10 * time.Millisecond}
	t0 := time.Now()
	var dues []time.Time
	for i := 0; i < 4; i++ {
		dues = append(dues, p.wait())
	}
	if spent := time.Since(t0); spent > 8*time.Millisecond {
		t.Errorf("four overdue requests took %v: the pacer slept on a backlog", spent)
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
	}
	for i, want := range []float64{30e6, 20e6, 10e6, 0} {
		if got := p.lag[i]; got < want || got > want+8e6 {
			t.Errorf("lag[%d] = %.1f ms, want about %.0f ms", i, got/1e6, want/1e6)
		}
	}
	// The next request is in the future: the pacer sleeps until it is due
	// and records (almost) no lateness.
	due := p.wait()
	if time.Now().Before(due) {
		t.Error("pacer returned before the request was due")
	}
	if p.lag[4] > 8e6 {
		t.Errorf("on-time request recorded %.1f ms lateness", p.lag[4]/1e6)
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := []span{
		{Name: "event", Start: 0, End: 100, ID: 1},
		{Name: "fail", Start: 5, End: 15, Parent: 1, ID: 2},
		{Name: "flush", Start: 10, End: 60, Parent: 1, ID: 3},  // overlaps fail by 5
		{Name: "probe", Start: 50, End: 130, Parent: 1, ID: 4}, // outlives its parent
		{Name: "inner", Start: 20, End: 30, Parent: 3, ID: 5},
		{Name: "batch", Start: 200, End: 210, ID: 6},
	}
	self := selfTimes(sp)
	// event: 100 long; children cover [5,60] and [60,100] clipped = 95.
	for i, want := range []int64{5, 10, 40, 80, 10, 10} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", sp[i].Name, self[i], want)
		}
	}
	if got := spansOfPhase(sp, "event", 0, 1); len(got) != 5 {
		t.Errorf("spansOfPhase kept %d spans, want the root and its four descendants", len(got))
	}
	if d := durations(sp, "flush"); len(d) != 1 || d[0] != 50 {
		t.Errorf("durations(flush) = %v", d)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0, 0))
	if tr.mark() != 0 || tr.spans() != nil {
		t.Error("a nil tracer recorded something")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 7)
	tr.end(tr.begin("child", root, 7))
	tr.end(root)
	sp := tr.spans()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[1].Req != 7 || sp[0].End < sp[1].End {
		t.Errorf("spans = %+v", sp)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("trace file has %d lines, want 2", n)
	}
}

// smokeConfig is the fixed conditions shrunk to a sub-second run: a
// 95-node topology, one set-up, dense churn so that every oracle sees
// work, and the wire shape over in-process pipes.
func smokeConfig(t *testing.T) runConfig {
	cfg := defaultConfig()
	cfg.scale, cfg.setups, cfg.seconds = 0.02, 1, 0.75
	cfg.rate, cfg.batch = 20_000, 64
	cfg.think = 200 * time.Microsecond
	cfg.pipe = true
	cfg.outDir, cfg.tmpDir = t.TempDir(), t.TempDir()
	return cfg
}

func TestSmokeEmitsEveryMetricOfTheContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for 300 ms phases")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, wl := range sp.Workloads {
		def, ok := findWorkload(wl.Name)
		if !ok {
			t.Fatalf("contract names workload %q, which the benchmark does not have", wl.Name)
		}
		t.Run(wl.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.trace = true
			res, err := execute(cfg, def, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("violations: %v", res.Violations)
			}
			if err := checkEmitted(sp, res.EndToEnd, false); err != nil {
				t.Error(err)
			}
			if err := checkEmitted(sp, res.PerLayer, true); err != nil {
				t.Error(err)
			}
			if len(res.EndToEnd) != len(sp.EndToEnd) || len(res.PerLayer) != len(sp.PerLayer) {
				t.Errorf("measured %d end-to-end and %d per-layer metrics, contract names %d and %d",
					len(res.EndToEnd), len(res.PerLayer), len(sp.EndToEnd), len(sp.PerLayer))
			}
			for _, m := range sp.EndToEnd {
				if v := res.EndToEnd[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", m.Name, v)
				}
			}
			// Every oracle is armed: sampled answers, the equivalence
			// pairs and restored probes all saw work.
			if res.Ops["query_checked"] < 1000 || res.Ops["restore_attempted"] == 0 || res.Ops["churn_events"] == 0 {
				t.Errorf("an oracle saw no work: %v", res.Ops)
			}
			if res.attempted() < 1 || res.failed() != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted(), res.failed())
			}
			shares := 0.0
			for _, k := range []string{"affected", "solve", "resolve", "assemble", "other"} {
				shares += res.PerLayer["engine.stage_"+k+"_share"].Value
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("stage shares sum to %v", shares)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+def.name+".jsonl")); err != nil {
				t.Error(err)
			}
			var buf bytes.Buffer
			res.print(&buf)
			for _, want := range []string{"CPUs", "GOMAXPROCS", "kernel", "commit", "seed", "phases:", "restore_p50_ms", " ms ", "n=", "ops:", "correct: true"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("report lacks %q", want)
				}
			}
		})
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, name := range []string{"shard_inproc", "shard_wire"} {
		def, _ := findWorkload(name)
		cfg := smokeConfig(t)
		cfg.wrong = true
		res, err := execute(cfg, def, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || len(res.Violations) == 0 || res.failed() == 0 {
			t.Errorf("%s: a corrupted reference went unnoticed: correct=%v, %d violations, %d failed",
				name, res.Correct, len(res.Violations), res.failed())
		}
	}
}

func TestCompareJudgesByBoundsAndRefusesOtherHosts(t *testing.T) {
	sp := spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	mk := func(lat, rate float64, cpus int) result {
		return result{Workload: "w", Correct: true, Provenance: provenance{NumCPU: cpus, GOARCH: "amd64", Kernel: "k"},
			Ops:      map[string]int64{"query_attempted": 100},
			EndToEnd: map[string]metric{"lat": {Value: lat, Unit: "ms"}, "rate": {Value: rate, Unit: "1/s"}}}
	}
	dir := t.TempDir()
	write := func(name string, r result) string {
		p := filepath.Join(dir, name)
		if err := writeResults(p, []result{r}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(10, 1000, 2))
	for _, c := range []struct {
		name      string
		r         result
		ok, fails bool
	}{
		{"same.json", mk(10.5, 950, 2), true, false},
		{"slow.json", mk(11.5, 1000, 2), false, false},
		{"lowrate.json", mk(10, 880, 2), false, false},
		{"faster.json", mk(5, 2000, 2), true, false},
		{"otherhost.json", mk(10, 1000, 8), false, true},
	} {
		var buf bytes.Buffer
		ok, err := compare(&buf, sp, base, write(c.name, c.r))
		if (err != nil) != c.fails || ok != c.ok {
			t.Errorf("%s: ok=%v err=%v, want ok=%v refusal=%v\n%s", c.name, ok, err, c.ok, c.fails, buf.String())
		}
	}
	worse := mk(10, 1000, 2)
	worse.Ops["query_failed"] = 5
	if ok, _ := compare(io.Discard, sp, base, write("failing.json", worse)); ok {
		t.Error("a larger share of failed operations was accepted")
	}
}

func TestAgreementGatesSpreadExceptSetup(t *testing.T) {
	sp := spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}, {Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	mk := func(setup, lat float64) result {
		return result{Workload: "w", EndToEnd: map[string]metric{"setup_s": {Value: setup}, "lat": {Value: lat}}}
	}
	steady := map[string][]result{"w": {mk(1, 10), mk(3, 10.1), mk(2, 10.2), mk(5, 10.1)}}
	if !agreement(io.Discard, sp, steady) {
		t.Error("steady runs rejected (set-up spread must not gate)")
	}
	noisy := map[string][]result{"w": {mk(1, 10), mk(1, 14), mk(1, 9), mk(1, 12)}}
	if agreement(io.Discard, sp, noisy) {
		t.Error("a spread beyond the bound was accepted")
	}
}

func TestChurnCyclesPlayEveryEpisodeOnceAndStayConnected(t *testing.T) {
	cfg := smokeConfig(t)
	g, err := buildTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	pop := failurePopulation(g, o, func(e graph.EdgeID) int { return int(e) % 7 })
	if len(pop) != populationSize {
		t.Fatalf("population of %d links", len(pop))
	}
	eps := episodes(pop, o)
	if len(eps) != populationSize/maxDown {
		t.Fatalf("%d episodes, want %d", len(eps), populationSize/maxDown)
	}
	member := map[graph.EdgeID]bool{}
	for _, ep := range eps {
		if len(ep) != maxDown || !o.connected(ep) {
			t.Fatalf("episode %v: want %d links that leave the graph connected", ep, maxDown)
		}
		for _, e := range ep {
			if member[e] {
				t.Fatalf("link %d is in two episodes", e)
			}
			member[e] = true
		}
	}
	sched := newChurn(eps, 42)
	var m downSet
	for c := 0; c < 5; c++ {
		failed := map[graph.EdgeID]int{}
		seen := map[string]int{} // failed-sets a failure leads to
		for _, ev := range sched.cycle() {
			if !member[ev.Edge] {
				t.Fatalf("link %d is not in an episode", ev.Edge)
			}
			before := len(m)
			m.apply(ev)
			if ev.Repair && len(m) != before-1 {
				t.Fatalf("cycle %d repairs link %d, which is up", c, ev.Edge)
			}
			if !ev.Repair {
				failed[ev.Edge]++
				seen[fmt.Sprint(m)]++
				if !o.connected(m) {
					t.Fatalf("cycle %d: failing %d beside %v disconnects the graph", c, ev.Edge, m)
				}
			}
			if len(m) > maxDown {
				t.Fatalf("%d links down", len(m))
			}
		}
		if len(m) != 0 {
			t.Fatalf("cycle %d ends with %v down, want the pristine network", c, m)
		}
		for _, e := range pop {
			if failed[e] != 1 {
				t.Fatalf("cycle %d fails link %d %d times", c, e, failed[e])
			}
		}
		// Every cycle visits the same failed-sets, each once: the plan
		// cache, which holds one episode, never has one when a failure
		// asks for it.
		if len(seen) != populationSize {
			t.Fatalf("cycle %d visits %d failed-sets by failure, want %d", c, len(seen), populationSize)
		}
	}
	if a, b := newChurn(eps, 42).cycle(), newChurn(eps, 42).cycle(); !equalEvents(a, b) {
		t.Fatal("the same seed gave another schedule")
	} else if c := newChurn(eps, 43).cycle(); equalEvents(a, c) {
		t.Error("another seed gave the same schedule")
	}
	if fixed := spreadFailures(pop, o, maxDown); len(fixed) != 3 || !o.connected(fixed) {
		t.Errorf("spreadFailures = %v", fixed)
	}
	three := seededFailures(pop, o, maxDown, 7)
	if len(three) != 3 || !o.connected(three) || three[0] == three[1] || three[1] == three[2] {
		t.Errorf("seededFailures = %v", three)
	}
}

func equalEvents(a, b []failure.Event) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
