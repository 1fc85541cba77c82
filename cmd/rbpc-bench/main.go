// Command rbpc-bench regenerates the paper's evaluation tables and
// figures on the synthetic stand-in topologies.
//
// Usage:
//
//	rbpc-bench [-table 1|2|3] [-figure 10] [-all] [-full] [-seed N] [-max-edges N]
//
// By default the big stand-ins are scaled down for quick runs; -full (or
// RBPC_FULL=1) builds them at the paper's sizes (slow: full Table 2 on
// the 40k-node Internet graph runs hundreds of Dijkstras).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"rbpc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code instead of calling
// os.Exit, so every path out runs the deferred calls that stop and flush a
// CPU profile. It exits 2 on a flag value it refuses, before building any
// topology, and 1 on a file it cannot write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbpc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "regenerate a table (1, 2 or 3)")
	figure := fs.Int("figure", 0, "regenerate a figure (10)")
	ablations := fs.Bool("ablations", false, "run the k-backup baseline comparison")
	all := fs.Bool("all", false, "regenerate every table and figure")
	full := fs.Bool("full", false, "build topologies at full paper scale")
	seed := fs.Int64("seed", 1, "random seed for topologies and sampling")
	maxEdges := fs.Int("max-edges", 20000, "edge sample cap for table 3 (0 = all edges)")
	jsonPath := fs.String("json", "", "also write all computed results as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, msg ...any) int {
		fmt.Fprintln(stderr, append([]any{"rbpc-bench:"}, msg...)...)
		return code
	}
	// A table or figure the command does not have used to build every
	// topology and print none, and a negative cap used to mean "all edges".
	switch {
	case *table < 0 || *table > 3:
		return fail(2, "-table must be 1, 2 or 3, got", *table)
	case *figure != 0 && *figure != 10:
		return fail(2, "-figure must be 10, got", *figure)
	case *maxEdges < 0:
		return fail(2, "-max-edges must be 0 (all edges) or more, got", *maxEdges)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	if !*all && *table == 0 && *figure == 0 && !*ablations {
		*all = true
	}

	sc := rbpc.EvalScaleFromEnv()
	if *full {
		sc = rbpc.FullEvalScale()
	}
	sc.Seed = *seed

	fullScale := *full || os.Getenv("RBPC_FULL") == "1"

	fmt.Fprintf(stdout, "Building evaluation topologies (seed=%d, AS scale=%.3f, Internet scale=%.3f)...\n",
		sc.Seed, sc.ASScale, sc.InternetScale)
	start := time.Now()
	nets := rbpc.EvalNetworks(sc)
	fmt.Fprintf(stdout, "done in %v\n\n", time.Since(start).Round(time.Millisecond))

	results := rbpc.EvalResults{Seed: *seed, FullScale: fullScale}
	if *all || *table == 1 {
		fmt.Fprintln(stdout, "=== Table 1: networks used in this article ===")
		rbpc.RunTable1(stdout, nets)
		fmt.Fprintln(stdout)
	}
	if *all || *table == 2 {
		fmt.Fprintln(stdout, "=== Table 2: restoration by concatenation of basic LSPs ===")
		t := time.Now()
		results.Table2 = rbpc.RunTable2(stdout, nets, *seed)
		fmt.Fprintf(stdout, "\n(table 2 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *table == 3 {
		fmt.Fprintln(stdout, "=== Table 3: length of the bypass of an edge ===")
		t := time.Now()
		results.Table3 = rbpc.RunTable3(stdout, nets, *maxEdges, *seed)
		fmt.Fprintf(stdout, "\n(table 3 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *figure == 10 {
		fmt.Fprintln(stdout, "=== Figure 10: restoration overhead of local RBPC (weighted ISP) ===")
		t := time.Now()
		fig := rbpc.RunFigure10(stdout, nets[0], *seed)
		results.Figure10 = &fig
		fmt.Fprintf(stdout, "\n(figure 10 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *ablations {
		fmt.Fprintln(stdout, "=== Ablation: RBPC vs pre-established k-backup paths (weighted ISP) ===")
		fmt.Fprintln(stdout, "(RBPC restores 100% of connected pairs at optimal cost with one basic LSP per pair)")
		t := time.Now()
		results.KBackup = rbpc.RunKBackupComparison(stdout, nets[0], []int{2, 3}, *seed)
		fmt.Fprintf(stdout, "\n(k-backup ablation computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Fprintln(stdout, "=== Extension: the k+1 bound under asymmetric weights (directed ISP) ===")
		fmt.Fprintln(stdout, "(the theorems cover symmetric weights; traffic engineering may assign asymmetric ones)")
		t = time.Now()
		results.Asym = rbpc.RunAsymmetry(stdout, nets[0], []int{0, 1, 2, 4}, *seed)
		fmt.Fprintf(stdout, "\n(asymmetry extension computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Fprintln(stdout, "=== Extension: restoration latency, RBPC vs LDP re-signaling ===")
		t = time.Now()
		small := rbpc.EvalNetwork{Name: "Waxman-24", G: rbpc.NewWaxman(24, 0.7, 0.4, *seed), Trials: 0}
		if timing, err := rbpc.RunTiming(stdout, small, 20, *seed); err != nil {
			fmt.Fprintln(stderr, "timing:", err)
		} else {
			results.Timing = &timing
		}
		fmt.Fprintf(stdout, "\n(timing extension computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Fprintln(stdout, "=== Extension: technology trade-off (concatenation vs re-establishment) ===")
		t = time.Now()
		results.Tradeoff = rbpc.RunTradeoff(stdout, nets[0], *seed)
		fmt.Fprintf(stdout, "\n(trade-off computed in %v)\n", time.Since(t).Round(time.Millisecond))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fail(1, err)
		}
		if err := results.WriteJSON(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		if err := f.Close(); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "\nresults written to %s\n", *jsonPath)
	}
	return 0
}
