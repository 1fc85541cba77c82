// Package probe measures wall-clock time-to-restore — the headline
// metric of the restoration-scheme comparison. After a failure is
// injected, the prober samples pairs whose primary LSP crossed the failed
// link and polls the serving surface until an epoch that has reacted to
// the failure returns an answer whose data-plane walk actually delivers;
// the elapsed wall clock since injection is that pair's restoration
// latency.
//
// The same prober drives every scheme, so the recorded distributions are
// directly comparable: the source scheme pays the full recompute+publish
// pipeline, the local flavors pay detection plus the local plan build,
// and hybrid pays whichever of its two phases answers first.
package probe

import (
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
)

// Backend is the serving surface of a backend whose snapshots this
// process can walk: synchronous snapshot queries, the static
// affected-pair index, and the sink for observed restoration samples.
type Backend interface {
	Query(src, dst graph.NodeID) engine.Result
	AffectedPairs(e graph.EdgeID) []graph.NodePair
	RecordRestore(src graph.NodeID, d time.Duration)
}

// Prober tuning: affected pairs sampled per failure, the polling cadence,
// and the give-up deadline per failure.
const (
	maxPairs = 4
	step     = 100 * time.Microsecond
	timeout  = 250 * time.Millisecond
)

// ProbeResult is one poll's restoration verdict for a pair, as computed
// by whoever owns the serving state: whether the answering epoch's
// failed-set contained the probed edge, whether the pair was routable,
// and whether the data-plane walk delivered.
type ProbeResult struct {
	FailedContains bool
	Routable       bool
	Delivered      bool
}

// Verdict computes the restoration verdict of one served answer against
// its own snapshot — what the owner of a data plane does for a poll. The
// walk is only taken for an epoch that has reacted to the failure: the
// pre-failure epoch still serves the old rows, its data plane would
// happily forward across the dead link, and the prober never reads
// Delivered from it.
func Verdict(res engine.Result, ed graph.EdgeID) ProbeResult {
	v := ProbeResult{Routable: res.Route != nil}
	for _, f := range res.Snap.Failed() {
		if f == ed {
			v.FailedContains = true
			break
		}
	}
	if v.FailedContains && v.Routable {
		pkt, err := res.Snap.Send(res.Src, res.Dst)
		v.Delivered = err == nil && pkt.At == res.Dst
	}
	return v
}

// ProbeBackend is the serving surface the prober polls: the whole verdict
// is computed by whoever owns the pair's data plane — the shard
// coordinator asks the owning worker, in process or over the wire — and
// handed back, rather than read off a local snapshot.
type ProbeBackend interface {
	ProbeQuery(src, dst graph.NodeID, ed graph.EdgeID) ProbeResult
	AffectedPairs(e graph.EdgeID) []graph.NodePair
	RecordRestore(src graph.NodeID, d time.Duration)
}

// RestoreVia measures one injected failure's time-to-restore: it samples
// up to maxPairs affected pairs (strided over the affected list) and, for
// each, polls the backend until an epoch reflecting the failure returns
// an answer whose data-plane walk delivers — the wall clock since t0 (the
// injection instant) is that pair's restoration latency, handed to
// RecordRestore. A nil answer in a failure-aware epoch is final for every
// scheme except hybrid (whose source-routed answer can still arrive once
// the flood horizon passes), so those pairs are skipped rather than
// timed out.
func RestoreVia(b ProbeBackend, scheme engine.Scheme, ed graph.EdgeID, t0 time.Time) {
	pairs := b.AffectedPairs(ed)
	if len(pairs) == 0 {
		return
	}
	stride := len(pairs) / maxPairs
	if stride < 1 {
		stride = 1
	}
	deadline := t0.Add(timeout)
	for i := 0; i < len(pairs) && i/stride < maxPairs; i += stride {
		pr := pairs[i]
		for {
			res := b.ProbeQuery(pr.Src, pr.Dst, ed)
			if res.FailedContains {
				if res.Delivered {
					b.RecordRestore(pr.Src, time.Since(t0))
					break
				}
				if !res.Routable && scheme != engine.SchemeHybrid {
					break // unrestorable this epoch: disconnected or bypass-blocked
				}
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(step)
		}
	}
}

// Restore is RestoreVia for a Backend: the verdict of every poll is
// computed here, from the answer's own snapshot.
func Restore(b Backend, scheme engine.Scheme, ed graph.EdgeID, t0 time.Time) {
	RestoreVia(local{b}, scheme, ed, t0)
}

type local struct{ Backend }

func (l local) ProbeQuery(src, dst graph.NodeID, ed graph.EdgeID) ProbeResult {
	return Verdict(l.Query(src, dst), ed)
}
