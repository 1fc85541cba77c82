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
	"io"
	"os"
	"strings"
	"time"

	"rbpc/internal/chaos"
	"rbpc/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code: 0 clean, 1 on an
// oracle violation, 2 on a flag value it refuses or a harness error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbpc-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 20, "hunt: number of schedule seeds to try")
	seed := fs.Int64("seed", 1, "hunt: first schedule seed")
	nodes := fs.Int("nodes", 18, "hunt: Waxman topology size")
	topoSeed := fs.Int64("topo-seed", 1, "hunt: topology seed")
	steps := fs.Int("steps", 60, "hunt: churn events per schedule")
	maxDown := fs.Int("maxdown", 3, "hunt: max concurrently-down links")
	faultName := fs.String("fault", engine.FaultNone.String(), faultUsage())
	corpus := fs.String("corpus", "", "hunt: write the shrunk failing case to this file")
	replay := fs.String("replay", "", "replay a corpus case instead of hunting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, msg ...any) int {
		fmt.Fprintln(stderr, append([]any{"rbpc-chaos:"}, msg...)...)
		return code
	}

	if *replay != "" {
		return replayCase(*replay, stdout, stderr)
	}

	// A value the hunt would quietly replace is refused: the harness reads
	// a zero count as its default, a cap of none as one, and a hunt of no
	// runs or no steps reports a clean run it never made. A churn schedule
	// needs a link, so two nodes.
	switch {
	case *runs < 1:
		return fail(2, "-runs must be at least 1, got", *runs)
	case *nodes < 2:
		return fail(2, "-nodes must be at least 2, got", *nodes)
	case *steps < 1:
		return fail(2, "-steps must be at least 1, got", *steps)
	case *maxDown < 1:
		return fail(2, "-maxdown must be at least 1, got", *maxDown)
	}
	fault, err := engine.ParseFault(*faultName)
	if err != nil {
		return fail(2, err)
	}
	cfg := chaos.Config{
		Nodes:    *nodes,
		TopoSeed: *topoSeed,
		Seed:     *seed,
		Steps:    *steps,
		MaxDown:  *maxDown,
		Fault:    fault,
	}

	start := time.Now()
	c, v, err := chaos.Hunt(cfg, *runs)
	if err != nil {
		return fail(2, err)
	}
	if v == nil {
		fmt.Fprintf(stdout, "rbpc-chaos: %d runs clean (%d nodes, topo seed %d, seeds %d..%d, fault %s) in %v\n",
			*runs, *nodes, *topoSeed, *seed, *seed+int64(*runs)-1, fault, time.Since(start).Round(time.Millisecond))
		return 0
	}

	fmt.Fprintf(stderr, "rbpc-chaos: ORACLE VIOLATION (schedule seed %d, fault %s)\n", c.Seed, c.Fault)
	fmt.Fprintf(stderr, "  %v\n", v)
	fmt.Fprintf(stderr, "shrunk schedule (%d steps):\n%s", len(c.Schedule), c.Schedule)
	if *corpus != "" {
		if err := chaos.SaveCase(*corpus, c); err != nil {
			return fail(2, "writing corpus:", err)
		}
		fmt.Fprintf(stderr, "corpus written to %s (replay with: rbpc-chaos -replay %s)\n", *corpus, *corpus)
	}
	return 1
}

// faultUsage builds the -fault help from the engine's one name table: the
// faults a hunt's lone engine can host. The three that act on a
// coordinator or a transport have nothing to perturb here and are reached by
// replaying a corpus case that sets shards or procs.
func faultUsage() string {
	names := []string{engine.FaultNone.String()}
	for _, f := range engine.Faults() {
		names = append(names, f.String())
	}
	return "inject an engine defect: " + strings.Join(names, ", ") +
		" (" + engine.FaultSkewShard.String() + ", " + engine.FaultTornFrame.String() + " and " +
		engine.FaultPristineView.String() + " need a -replay case with shards / procs)"
}

func replayCase(path string, stdout, stderr io.Writer) int {
	c, err := chaos.LoadCase(path)
	if err != nil {
		fmt.Fprintln(stderr, "rbpc-chaos:", err)
		return 2
	}
	fmt.Fprintf(stdout, "rbpc-chaos: replaying %s (%d nodes, topo seed %d, fault %s, %d steps)\n",
		path, c.Nodes, c.TopoSeed, c.Fault, len(c.Schedule))
	rep, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "rbpc-chaos: REPRODUCED\n  %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "rbpc-chaos: clean — %d churn (%d multi-link bursts), %d queries, %d probes, %d epochs\n",
		rep.Churn, rep.Bursts, rep.Queries, rep.Probes, rep.Epochs)
	return 0
}
