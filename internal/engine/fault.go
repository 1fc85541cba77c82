package engine

import "fmt"

// Fault selects a deliberately injected defect. The chaos conformance
// harness (internal/chaos) runs the system with each fault to prove its
// runtime oracles catch the corresponding class of real bug — a
// conformance suite that cannot detect its own target defects proves
// nothing. Production configurations leave it at FaultNone. This is the
// one fault vocabulary of the serving stack: the writer defects perturb
// this package's writer goroutine (so a faulty engine is still race-free,
// just wrong); FaultSkewShard, FaultTornFrame and FaultPristineView travel
// in the same Config.Fault field but are acted on by the shard coordinator,
// the shardrpc transport and the snapshot decoder, and an engine ignores
// them.
type Fault int

const (
	// FaultNone is the correct engine.
	FaultNone Fault = iota
	// FaultStalePlanOnRepair reuses the previous epoch's plan whenever a
	// repair shrinks the failed-set, skipping the plan-cache lookup the
	// transition needs. Pairs keep riding restoration detours after their
	// primaries come back, so served costs exceed the true post-failure
	// shortest distance (optimality-oracle violation).
	FaultStalePlanOnRepair
	// FaultDropEpoch silently skips publishing epochs whose failed-set
	// shrank: repairs are absorbed but never surface, so after a flush
	// the snapshot disagrees with the event stream (snapshot-agreement
	// oracle violation).
	FaultDropEpoch
	// FaultSkipRepairRescan makes the incremental builder skip the
	// repair-improvement rescan: surviving restoration routes are reused
	// even when a repaired link offers a shorter path, so served costs
	// exceed the true post-failure shortest distance (optimality- and
	// equivalence-oracle violation). The from-scratch reference path is
	// unaffected, which is exactly what the incremental-vs-full
	// equivalence oracle exists to catch.
	FaultSkipRepairRescan
	// FaultStaleBypass skips the local-plan rebuild on epoch transitions
	// under the local restoration schemes (Config.Scheme != SchemeSource):
	// the previous failed-set's ILM patches stay applied and its local
	// routes keep being served. Newly affected pairs fall through to
	// canonical rows crossing a dead link (dead-edge oracle violation) and
	// repaired pairs keep detouring (optimality violation). Meaningless
	// under SchemeSource, where no local plan exists to go stale.
	FaultStaleBypass
	// FaultSkewShard makes the shard coordinator (internal/shard) drop
	// every failure/repair burst destined for worker 0, skewing its epoch
	// state behind its peers — the torn-view defect the per-worker
	// flush-agreement oracle must catch, in process and over the wire.
	FaultSkewShard
	// FaultTornFrame makes the transport (internal/shardrpc) corrupt one
	// burst frame on worker 0's control connection after its checksum is
	// computed: the receiver drops the torn frame, the worker silently
	// misses churn, and its replica's failed-set disagrees at the next
	// flush.
	FaultTornFrame
	// FaultPristineView makes the process-mode coordinator's snapshot
	// decoder (SnapDecoder.Detached) build every replica's failure view
	// from no failed links, while the failed-set it reports stays right:
	// the replica's data plane forwards and its distance oracle measures
	// as if nothing were down (equivalence-oracle violation: the sampled
	// post-failure distances diverge from the reference's).
	FaultPristineView
)

// faultNames is the one name table: the CLI vocabulary of cmd/rbpc-chaos
// -fault and the corpus file encoding.
var faultNames = [...]string{
	FaultNone:              "none",
	FaultStalePlanOnRepair: "stale-plan-on-repair",
	FaultDropEpoch:         "drop-epoch",
	FaultSkipRepairRescan:  "skip-repair-rescan",
	FaultStaleBypass:       "stale-bypass",
	FaultSkewShard:         "skew-shard",
	FaultTornFrame:         "torn-frame",
	FaultPristineView:      "pristine-view",
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	if f < 0 || int(f) >= len(faultNames) {
		return fmt.Sprintf("Fault(%d)", int(f))
	}
	return faultNames[f]
}

// Faults lists the writer defects — every fault a lone engine can host
// (FaultNone excluded). FaultSkewShard needs a coordinator, and
// FaultTornFrame and FaultPristineView a transport, so harnesses that
// iterate this list against a single engine do not meet them.
func Faults() []Fault {
	return []Fault{FaultStalePlanOnRepair, FaultDropEpoch, FaultSkipRepairRescan, FaultStaleBypass}
}

// ParseFault maps a Fault name back to its value.
func ParseFault(name string) (Fault, error) {
	for f, n := range faultNames {
		if n == name {
			return Fault(f), nil
		}
	}
	return FaultNone, fmt.Errorf("engine: unknown fault %q", name)
}
