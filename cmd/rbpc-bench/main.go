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
	"os"
	"runtime/pprof"
	"time"

	"rbpc"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "regenerate a figure (10)")
	ablations := flag.Bool("ablations", false, "run the k-backup baseline comparison")
	all := flag.Bool("all", false, "regenerate every table and figure")
	full := flag.Bool("full", false, "build topologies at full paper scale")
	seed := flag.Int64("seed", 1, "random seed for topologies and sampling")
	maxEdges := flag.Int("max-edges", 20000, "edge sample cap for table 3 (0 = all edges)")
	jsonPath := flag.String("json", "", "also write all computed results as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-bench:", err)
			os.Exit(1)
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

	fmt.Printf("Building evaluation topologies (seed=%d, AS scale=%.3f, Internet scale=%.3f)...\n",
		sc.Seed, sc.ASScale, sc.InternetScale)
	start := time.Now()
	nets := rbpc.EvalNetworks(sc)
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	out := os.Stdout
	results := rbpc.EvalResults{Seed: *seed, FullScale: fullScale}
	if *all || *table == 1 {
		fmt.Println("=== Table 1: networks used in this article ===")
		rbpc.RunTable1(out, nets)
		fmt.Println()
	}
	if *all || *table == 2 {
		fmt.Println("=== Table 2: restoration by concatenation of basic LSPs ===")
		t := time.Now()
		results.Table2 = rbpc.RunTable2(out, nets, *seed)
		fmt.Printf("\n(table 2 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *table == 3 {
		fmt.Println("=== Table 3: length of the bypass of an edge ===")
		t := time.Now()
		results.Table3 = rbpc.RunTable3(out, nets, *maxEdges, *seed)
		fmt.Printf("\n(table 3 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *figure == 10 {
		fmt.Println("=== Figure 10: restoration overhead of local RBPC (weighted ISP) ===")
		t := time.Now()
		fig := rbpc.RunFigure10(out, nets[0], *seed)
		results.Figure10 = &fig
		fmt.Printf("\n(figure 10 computed in %v)\n\n", time.Since(t).Round(time.Millisecond))
	}
	if *all || *ablations {
		fmt.Println("=== Ablation: RBPC vs pre-established k-backup paths (weighted ISP) ===")
		fmt.Println("(RBPC restores 100% of connected pairs at optimal cost with one basic LSP per pair)")
		t := time.Now()
		results.KBackup = rbpc.RunKBackupComparison(out, nets[0], []int{2, 3}, *seed)
		fmt.Printf("\n(k-backup ablation computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Println("=== Extension: the k+1 bound under asymmetric weights (directed ISP) ===")
		fmt.Println("(the theorems cover symmetric weights; traffic engineering may assign asymmetric ones)")
		t = time.Now()
		results.Asym = rbpc.RunAsymmetry(out, nets[0], []int{0, 1, 2, 4}, *seed)
		fmt.Printf("\n(asymmetry extension computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Println("=== Extension: restoration latency, RBPC vs LDP re-signaling ===")
		t = time.Now()
		small := rbpc.EvalNetwork{Name: "Waxman-24", G: rbpc.NewWaxman(24, 0.7, 0.4, *seed), Trials: 0}
		if timing, err := rbpc.RunTiming(out, small, 20, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
		} else {
			results.Timing = &timing
		}
		fmt.Printf("\n(timing extension computed in %v)\n\n", time.Since(t).Round(time.Millisecond))

		fmt.Println("=== Extension: technology trade-off (concatenation vs re-establishment) ===")
		t = time.Now()
		results.Tradeoff = rbpc.RunTradeoff(out, nets[0], *seed)
		fmt.Printf("\n(trade-off computed in %v)\n", time.Since(t).Round(time.Millisecond))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := results.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "rbpc-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nresults written to %s\n", *jsonPath)
	}
}
