// Command bench is the repository's benchmark of record: time-to-restore,
// query service and churn throughput of the three deployment shapes
// (internal/engine alone, internal/shard in process, internal/shardrpc
// over Unix sockets to forked workers), driven only through their public
// functions, with exact samples, armed correctness oracles and, in a
// traced run, a per-layer table. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"rbpc/internal/shardrpc"
)

func main() {
	cfg := defaultConfig()
	var (
		workerSpec = flag.String("worker", "", "run as a shard worker process with this spec (set by the fleet, not by hand)")
		workload   = flag.String("workload", "", "workload to run (default: every workload of the spec, each in its own process)")
		trace      = flag.Int("trace", 0, "1 records a span around every call into a layer, emits the per-layer table and writes bench/out/trace_<workload>.jsonl")
		repeat     = flag.Int("repeat", 1, "run the whole set N times on successive seeds and check each metric's spread against its bound")
		cmp        = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out        = flag.String("out", "", "also write the full results (provenance, metrics, operation counts) to this JSON file")
		specPath   = flag.String("spec", "BENCHMARK.json", "the benchmark contract: workloads, metrics and bounds")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the churn schedules and query streams")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "seconds measured per run, shared by the load, bulk and serial phases")
	flag.Parse()

	// Worker mode first: the fleet re-executes this binary with -worker.
	if *workerSpec != "" {
		wo, err := shardrpc.ParseWorkerOpts(*workerSpec)
		if err != nil {
			fatal(2, err)
		}
		fatal(1, fmt.Errorf("worker: %w", shardrpc.RunWorker(wo)))
	}
	cfg.trace = *trace != 0

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(2, fmt.Errorf("reading the benchmark contract: %w", err))
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(2, fmt.Errorf("unknown workload %q", *workload))
		}
		if err := runWorkload(cfg, def, sp, *out); err != nil {
			fatal(1, fmt.Errorf("%s: %w", def.name, err))
		}
		return
	}

	// Whole set: every workload in its own process, so that peak memory
	// and set-up are each workload's own.
	runs := map[string][]result{}
	var all []result
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		for _, wl := range sp.Workloads {
			seed := cfg.seed + int64(rep)
			file := filepath.Join(cfg.outDir, fmt.Sprintf("result_%s_%d.json", wl.Name, seed))
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				fatal(1, err)
			}
			child := exec.Command(os.Args[0], "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace),
				"-spec", *specPath, "-out", file)
			child.Stdout, child.Stderr = os.Stdout, os.Stderr
			if err := child.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.Name, seed, err)
				failed = true
			}
			rs, err := readResults(file)
			if err != nil {
				fatal(1, err)
			}
			runs[wl.Name] = append(runs[wl.Name], rs[wl.Name])
			all = append(all, rs[wl.Name])
		}
	}
	if *out != "" {
		if err := writeResults(*out, all); err != nil {
			fatal(1, err)
		}
	}
	if *repeat > 1 && !agreement(os.Stdout, sp, runs) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload is one run as the driver makes it: the report, then the
// result line. Any failure, a violated oracle included, is an error.
func runWorkload(cfg runConfig, def workloadDef, sp spec, out string) error {
	res, err := execute(cfg, def, os.Stdout)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if out != "" {
		if err := writeResults(out, []result{res}); err != nil {
			return err
		}
	}
	metrics := res.EndToEnd
	if cfg.trace {
		metrics = res.PerLayer
	}
	if err := checkEmitted(sp, metrics, cfg.trace); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.attempted(), "failed": res.failed(), "metrics": valuesOnly(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness violations", len(res.Violations))
	}
	return nil
}

// checkEmitted refuses a run that did not produce every metric the
// contract names for this kind of run.
func checkEmitted(sp spec, got map[string]metric, traced bool) error {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is named in the contract but was not measured", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q, contract says %q", m.Name, g.Unit, m.Unit)
		}
	}
	return nil
}

func valuesOnly(ms map[string]metric) map[string]map[string]any {
	out := make(map[string]map[string]any, len(ms))
	for k, m := range ms {
		out[k] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}
