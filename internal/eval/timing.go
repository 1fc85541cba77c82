package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"rbpc/internal/graph"
	"rbpc/internal/ldp"
	rbpcint "rbpc/internal/rbpc"
	"rbpc/internal/sim"
)

// TimingResult quantifies the restoration race the paper argues
// qualitatively: how long traffic is down under each scheme, over
// sampled single-link failures with realistic detection/flooding/
// signaling delays.
//
//	local RBPC     traffic resumes when the adjacent router patches
//	source RBPC    every affected pair is on its optimal route once the
//	               last affected source has heard the flood
//	baseline       every affected pair restored once its LDP re-signaling
//	               round-trip completes (teardown + establishment)
type TimingResult struct {
	Network  string
	Failures int

	LocalMean, LocalP95       sim.Time
	SourceMean, SourceP95     sim.Time
	BaselineMean, BaselineP95 sim.Time
}

// The hybrid timeline's delays, in ms: the routers adjacent to a failure
// detect it after detectDelay, and every further router hears the
// link-state flood one link (1 ms) and one processing step (0.1 ms) later
// per hop.
const (
	detectDelay sim.Time = 10
	floodHop    sim.Time = 1 + 0.1
)

// Timing runs the latency experiment: sample non-partitioning links, and
// for each failure record when each scheme restores. Local RBPC restores at
// detection. Source RBPC restores when the flood (sim.FloodHops, the model
// the serving engine's hybrid runs) reaches the last source whose primary
// crosses the failed link — the engine's affected pairs. The baseline runs
// its LDP re-signaling on a fresh deployment and timeline per failure.
func Timing(net Network, trials int, seed int64) (TimingResult, error) {
	g := net.G
	res := TimingResult{Network: net.Name}

	sys, err := rbpcint.NewSystem(g, rbpcint.DefaultConfig())
	if err != nil {
		return res, fmt.Errorf("eval: timing: %w", err)
	}
	prov := sys.Export()
	primary := prov.PrimaryMask()

	rng := rand.New(rand.NewSource(seed))
	var local, source, baseline []sim.Time

	for trial := 0; trial < trials; trial++ {
		e := graph.EdgeID(rng.Intn(g.Size()))
		fv := graph.FailEdges(g, e)
		if !graph.Connected(fv) {
			continue // a bridge: nothing restores it, skip per methodology
		}
		local = append(local, detectDelay)
		if pairs := rbpcint.AffectedPairs(prov.Base, primary, e); len(pairs) > 0 {
			hops := sim.FloodHops(fv, g.Edge(e))
			var last int
			for _, pr := range pairs {
				last = max(last, hops[pr.Src])
			}
			source = append(source, detectDelay+sim.Time(last)*floodHop)
		}

		// Baseline on its own fresh deployment and timeline.
		balEng := &sim.Engine{}
		bal, err := rbpcint.NewBaseline(g, balEng, ldp.DefaultConfig())
		if err != nil {
			return res, err
		}
		bal.NotifyDelay = detectDelay
		bal.FailLink(e)
		balEng.Run()
		var lastBal sim.Time
		for _, at := range bal.RestoredAt {
			if at > lastBal {
				lastBal = at
			}
		}
		if len(bal.RestoredAt) > 0 {
			baseline = append(baseline, lastBal)
		}
		res.Failures++
	}

	res.LocalMean, res.LocalP95 = meanP95(local)
	res.SourceMean, res.SourceP95 = meanP95(source)
	res.BaselineMean, res.BaselineP95 = meanP95(baseline)
	return res, nil
}

func meanP95(xs []sim.Time) (mean, p95 sim.Time) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]sim.Time(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, x := range sorted {
		sum += x
	}
	idx := (len(sorted) * 95) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sum / sim.Time(len(sorted)), sorted[idx]
}
