package probe

import (
	"testing"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// fake is a scripted ProbeBackend: verdict decides every poll from the
// pair and how many times it has been polled before.
type fake struct {
	pairs   []graph.NodePair
	verdict func(pr graph.NodePair, poll int) ProbeResult
	polls   map[graph.NodePair]int
	samples map[graph.NodePair][]time.Duration
}

func newFake(n int, verdict func(graph.NodePair, int) ProbeResult) *fake {
	f := &fake{verdict: verdict, polls: map[graph.NodePair]int{}, samples: map[graph.NodePair][]time.Duration{}}
	for i := 0; i < n; i++ {
		f.pairs = append(f.pairs, graph.NodePair{Src: graph.NodeID(i), Dst: graph.NodeID(i + 100)})
	}
	return f
}

func (f *fake) AffectedPairs(graph.EdgeID) []graph.NodePair { return f.pairs }

func (f *fake) ProbeQuery(src, dst graph.NodeID, _ graph.EdgeID) ProbeResult {
	pr := graph.NodePair{Src: src, Dst: dst}
	f.polls[pr]++
	return f.verdict(pr, f.polls[pr]-1)
}

func (f *fake) RecordRestore(src graph.NodeID, d time.Duration) {
	pr := graph.NodePair{Src: src, Dst: src + 100}
	f.samples[pr] = append(f.samples[pr], d)
}

var (
	restored   = ProbeResult{FailedContains: true, Routable: true, Delivered: true}
	preFailure = ProbeResult{Routable: true, Delivered: true} // old rows still forward
	unroutable = ProbeResult{FailedContains: true}
)

// A pre-failure epoch is never timed, however well it delivers: the
// sample is taken from the first failure-aware poll.
func TestPreFailureEpochNeverTimed(t *testing.T) {
	const stale = 3
	f := newFake(1, func(_ graph.NodePair, poll int) ProbeResult {
		if poll < stale {
			return preFailure
		}
		return restored
	})
	RestoreVia(f, engine.SchemeSource, 0, time.Now())
	pr := f.pairs[0]
	if f.polls[pr] != stale+1 {
		t.Fatalf("%d polls, want %d (every pre-failure answer must be polled past)", f.polls[pr], stale+1)
	}
	if len(f.samples[pr]) != 1 || f.samples[pr][0] < stale*step {
		t.Fatalf("samples %v, want one of at least %v", f.samples[pr], stale*step)
	}
}

// One sample per delivered pair, one poll each when restoration is
// already in place.
func TestOneSamplePerDeliveredPair(t *testing.T) {
	f := newFake(3, func(graph.NodePair, int) ProbeResult { return restored })
	RestoreVia(f, engine.SchemeSource, 0, time.Now())
	for _, pr := range f.pairs {
		if f.polls[pr] != 1 || len(f.samples[pr]) != 1 {
			t.Fatalf("pair %v: %d polls, %d samples, want 1 and 1", pr, f.polls[pr], len(f.samples[pr]))
		}
	}
}

// A nil route in a failure-aware epoch is final — except under hybrid,
// whose source-routed answer can still arrive after the flood horizon.
func TestNilRouteFinalExceptHybrid(t *testing.T) {
	script := func(_ graph.NodePair, poll int) ProbeResult {
		if poll < 2 {
			return unroutable
		}
		return restored
	}
	for _, sch := range engine.Schemes() {
		f := newFake(1, script)
		RestoreVia(f, sch, 0, time.Now())
		pr := f.pairs[0]
		wantPolls, wantSamples := 1, 0
		if sch == engine.SchemeHybrid {
			wantPolls, wantSamples = 3, 1
		}
		if f.polls[pr] != wantPolls || len(f.samples[pr]) != wantSamples {
			t.Errorf("%v: %d polls, %d samples, want %d and %d", sch, f.polls[pr], len(f.samples[pr]), wantPolls, wantSamples)
		}
	}
}

// At most maxPairs pairs are probed, strided over the affected list.
func TestAtMostFourStridedPairs(t *testing.T) {
	for n, want := range map[int][]int{0: nil, 3: {0, 1, 2}, 4: {0, 1, 2, 3}, 10: {0, 2, 4, 6}, 17: {0, 4, 8, 12}} {
		f := newFake(n, func(graph.NodePair, int) ProbeResult { return restored })
		RestoreVia(f, engine.SchemeSource, 0, time.Now())
		if len(f.polls) != len(want) {
			t.Errorf("%d affected pairs: %d probed, want %d", n, len(f.polls), len(want))
		}
		for _, i := range want {
			if f.polls[f.pairs[i]] != 1 {
				t.Errorf("%d affected pairs: pair %d not probed", n, i)
			}
		}
	}
}

// The deadline is per failure, counted from injection: a pair that is
// not restored by then yields no sample, and the pairs after it get one
// last poll each.
func TestDeadlineYieldsNoSample(t *testing.T) {
	f := newFake(2, func(graph.NodePair, int) ProbeResult { return preFailure })
	start := time.Now()
	RestoreVia(f, engine.SchemeSource, 0, start.Add(-timeout+20*time.Millisecond))
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > timeout {
		t.Fatalf("gave up after %v, want about 20ms (the rest of the %v deadline)", waited, timeout)
	}
	if len(f.samples) != 0 {
		t.Fatalf("samples %v from a failure that was never restored", f.samples)
	}
	if f.polls[f.pairs[0]] < 2 || f.polls[f.pairs[1]] != 1 {
		t.Fatalf("polls %v, want several for the first pair and one for the pair after the deadline", f.polls)
	}
}

// engineBackend is the smallest real Backend: an engine plus a sample
// list.
type engineBackend struct {
	*engine.Engine
	samples int
}

func (b *engineBackend) RecordRestore(graph.NodeID, time.Duration) { b.samples++ }

// Restore is the same loop with the verdict computed here: against a real
// engine, a flushed failure restores every probed pair, and the verdict
// of a pre-failure answer is never failure-aware.
func TestRestoreAgainstEngine(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 3)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sys.Export(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b := &engineBackend{Engine: eng}

	var ed graph.EdgeID
	for _, e := range g.Edges() {
		if len(b.AffectedPairs(e.ID)) >= maxPairs {
			ed = e.ID
			break
		}
	}
	pr := b.AffectedPairs(ed)[0]
	if v := Verdict(eng.Query(pr.Src, pr.Dst), ed); v.FailedContains || v.Delivered || !v.Routable {
		t.Fatalf("pre-failure verdict %+v, want routable only", v)
	}
	t0 := time.Now()
	eng.Fail(ed)
	eng.Flush()
	Restore(b, engine.SchemeSource, ed, t0)
	if b.samples == 0 || b.samples > maxPairs {
		t.Fatalf("%d samples for a flushed failure with >= %d affected pairs", b.samples, maxPairs)
	}
	if v := Verdict(eng.Query(pr.Src, pr.Dst), ed); !v.FailedContains || v.Routable != v.Delivered {
		t.Fatalf("post-failure verdict %+v, want failure-aware and delivered iff routable", v)
	}
}
