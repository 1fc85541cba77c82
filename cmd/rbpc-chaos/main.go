// Command rbpc-chaos drives the deterministic fault-injection
// conformance harness (internal/chaos) against the online restoration
// engine.
//
// Hunt mode (default) generates seeded chaos schedules and runs each
// against the engine with the oracles armed. On the first violation the
// schedule is shrunk to a minimal reproduction, printed, optionally
// written as a corpus file, and the process exits 1:
//
//	rbpc-chaos -runs 50 -seed 1 -corpus failing.chaos
//
// Replay mode re-runs a corpus case byte-for-byte deterministically and
// exits 1 if it still violates an oracle:
//
//	rbpc-chaos -replay failing.chaos
//
// The -fault flag injects a deliberate engine defect (see
// engine.Faults), which is how the harness proves its own oracles work:
//
//	rbpc-chaos -fault stale-plan-on-repair
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rbpc/internal/chaos"
	"rbpc/internal/engine"
)

func main() {
	runs := flag.Int("runs", 20, "hunt: number of schedule seeds to try")
	seed := flag.Int64("seed", 1, "hunt: first schedule seed")
	nodes := flag.Int("nodes", 18, "hunt: Waxman topology size")
	topoSeed := flag.Int64("topo-seed", 1, "hunt: topology seed")
	steps := flag.Int("steps", 60, "hunt: churn events per schedule")
	maxDown := flag.Int("maxdown", 3, "hunt: max concurrently-down links")
	coalesce := flag.Duration("coalesce", 0, "engine coalescing window (hunt alternates 0 and 200us when unset)")
	faultName := flag.String("fault", engine.FaultNone.String(), faultUsage())
	corpus := flag.String("corpus", "", "hunt: write the shrunk failing case to this file")
	replay := flag.String("replay", "", "replay a corpus case instead of hunting")
	flag.Parse()

	if *replay != "" {
		replayCase(*replay)
		return
	}

	fault, err := engine.ParseFault(*faultName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-chaos:", err)
		os.Exit(2)
	}
	cfg := chaos.Config{
		Nodes:          *nodes,
		TopoSeed:       *topoSeed,
		Seed:           *seed,
		Steps:          *steps,
		MaxDown:        *maxDown,
		CoalesceWindow: *coalesce,
		Fault:          fault,
	}

	start := time.Now()
	c, v, err := chaos.Hunt(cfg, *runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-chaos:", err)
		os.Exit(2)
	}
	if v == nil {
		fmt.Printf("rbpc-chaos: %d runs clean (%d nodes, topo seed %d, seeds %d..%d, fault %s) in %v\n",
			*runs, *nodes, *topoSeed, *seed, *seed+int64(*runs)-1, fault, time.Since(start).Round(time.Millisecond))
		return
	}

	fmt.Fprintf(os.Stderr, "rbpc-chaos: ORACLE VIOLATION (schedule seed %d, fault %s)\n", c.Seed, c.Fault)
	fmt.Fprintf(os.Stderr, "  %v\n", v)
	fmt.Fprintf(os.Stderr, "shrunk schedule (%d steps):\n%s", len(c.Schedule), c.Schedule)
	if *corpus != "" {
		if err := chaos.SaveCase(*corpus, c); err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-chaos: writing corpus:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "corpus written to %s (replay with: rbpc-chaos -replay %s)\n", *corpus, *corpus)
	}
	os.Exit(1)
}

// faultUsage builds the -fault help from the engine's one name table: the
// faults a hunt's lone engine can host. The two that act on a coordinator or
// a transport have nothing to perturb here and are reached by replaying a
// corpus case that sets shards or procs.
func faultUsage() string {
	names := []string{engine.FaultNone.String()}
	for _, f := range engine.Faults() {
		names = append(names, f.String())
	}
	return "inject an engine defect: " + strings.Join(names, ", ") +
		" (" + engine.FaultSkewShard.String() + " and " + engine.FaultTornFrame.String() + " need a -replay case with shards / procs)"
}

func replayCase(path string) {
	c, err := chaos.LoadCase(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbpc-chaos:", err)
		os.Exit(2)
	}
	fmt.Printf("rbpc-chaos: replaying %s (%d nodes, topo seed %d, fault %s, %d steps)\n",
		path, c.Nodes, c.TopoSeed, c.Fault, len(c.Schedule))
	rep, err := c.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbpc-chaos: REPRODUCED\n  %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rbpc-chaos: clean — %d churn, %d queries, %d probes, %d epochs\n",
		rep.Churn, rep.Queries, rep.Probes, rep.Epochs)
}
