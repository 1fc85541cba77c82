package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"rbpc/internal/engine"
)

// The sharded cases run one driver in two deployment modes: the
// coordinator over in-process engines, and the same coordinator over
// socket clients (real wire frames over pipe transports, decoded replica
// snapshots). Every test below is the same check in one mode.

func shardedCfg() Config {
	cfg := smokeCfg()
	cfg.Shards = 3
	return cfg
}

func procCfg() Config {
	cfg := shardedCfg()
	cfg.Procs = true
	return cfg
}

// lockstepClean: the production coordinator survives the chaos schedules
// with every oracle green — per-worker flush agreement, per-worker epoch
// monotonicity, and bit-identical merged views against the single-writer
// FullRebuild reference.
func lockstepClean(t *testing.T, cfg Config) {
	c, v, err := Hunt(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("sharded coordinator violated an oracle:\n%v\nschedule:\n%s", v, c.Schedule)
	}
}

func TestShardedLockstepEquivalence(t *testing.T) { lockstepClean(t, shardedCfg()) }
func TestProcLockstepEquivalence(t *testing.T)    { lockstepClean(t, procCfg()) }

// catchesEvery is the sharded harness's own conformance proof for one
// mode: each fault is caught, shrunk, replayed and round-tripped (see
// catchShrinkReplay).
func catchesEvery(t *testing.T, cfg Config, faults ...engine.Fault) {
	for _, f := range faults {
		cfg.Fault = f
		t.Run(f.String(), func(t *testing.T) { catchShrinkReplay(t, cfg) })
	}
}

// The skew is injected in the coordinator's one fan-out, so both modes
// must catch it; the torn frame needs a wire.
func TestHarnessCatchesEveryShardFault(t *testing.T) {
	catchesEvery(t, shardedCfg(), engine.FaultSkewShard)
}

func TestHarnessCatchesEveryProcFault(t *testing.T) {
	catchesEvery(t, procCfg(), engine.FaultSkewShard, engine.FaultTornFrame)
}

// engineFaultStillCaught: an engine-level defect inside a worker is still
// caught through the sharded oracles (the skew proof must not be the only
// working detector) — over the wire too, where the decoded replicas and
// wire answers carry enough state although no engine memory is shared.
func engineFaultStillCaught(t *testing.T, cfg Config) {
	cfg.Fault = engine.FaultDropEpoch
	_, v, err := Hunt(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("drop-epoch inside a worker not caught by the sharded harness")
	}
}

func TestShardedEngineFaultsStillCaught(t *testing.T) { engineFaultStillCaught(t, shardedCfg()) }
func TestProcEngineFaultsStillCaught(t *testing.T)    { engineFaultStillCaught(t, procCfg()) }

// Sharded runs replay alike too (replayTwice): neither the fan-out nor the
// pipe transport adds scheduling visible to the oracles.
func TestShardedTraceDeterministic(t *testing.T) { replayTwice(t, shardedCfg()) }
func TestProcTraceDeterministic(t *testing.T)    { replayTwice(t, procCfg()) }

// TestProcCorpusKeys: process-mode cases survive the corpus format,
// in-process sharded files stay byte-identical to the pre-transport
// format (no procs key written), and files written while the coordinator
// and the transport had fault enums of their own, or the engine a
// coalescing window, still load.
func TestProcCorpusKeys(t *testing.T) {
	c, err := Generate(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCase(&buf, c); err != nil {
		t.Fatal(err)
	}
	rc, err := ReadCase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCase: %v\ncorpus:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(rc, c) {
		t.Fatalf("corpus round-trip changed the case:\ngot  %+v\nwant %+v", rc, c)
	}

	sc, err := Generate(shardedCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := WriteCase(&sb, sc); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sb.Bytes(), []byte("proc")) {
		t.Fatalf("in-process sharded corpus carries a process-mode key:\n%s", sb.String())
	}

	for _, tc := range []struct {
		header string
		want   engine.Fault
		ok     bool
	}{
		{"fault none\nshards 3\nshard-fault skew-shard\n", engine.FaultSkewShard, true},
		{"fault none\nshards 3\nshard-fault none\nprocs 1\nproc-fault torn-frame\n", engine.FaultTornFrame, true},
		{"fault drop-epoch\nshards 3\nshard-fault none\n", engine.FaultDropEpoch, true},
		{"fault drop-epoch\nshards 3\nshard-fault skew-shard\n", 0, false}, // one fault per case
		{"coalesce-us 200\nfault drop-epoch\n", engine.FaultDropEpoch, true},
	} {
		old, err := ReadCase(bytes.NewReader([]byte("nodes 12\n" + tc.header + "schedule\nfail 1\nflush\n")))
		if (err == nil) != tc.ok {
			t.Fatalf("old-format corpus %q: err = %v, want ok = %v", tc.header, err, tc.ok)
		}
		if tc.ok && old.Fault != tc.want {
			t.Fatalf("old-format corpus %q loaded fault %v, want %v", tc.header, old.Fault, tc.want)
		}
	}
}
