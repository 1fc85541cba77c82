package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"rbpc/internal/graph"
)

// buildDir holds everything a run leaves behind apart from trace files:
// the launcher's binary and build cache, and the worker fleet's sockets.
const buildDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing; Tail names the highest
	// percentile with at least ten samples beyond it and TailValue is its
	// value in the metric's unit.
	N         int     `json:"n,omitempty"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// timing summarises a sample list (ns) at percentile p, scaled by conv.
func timing(s samples, p float64, unit string, conv func(float64) float64) metric {
	so := s.sorted()
	m := metric{Value: conv(pct(so, p)), Unit: unit, N: len(so)}
	if hp, ok := highestPct(len(so)); ok {
		m.Tail = "p" + strconv.FormatFloat(hp, 'g', -1, 64)
		m.TailValue = conv(pct(so, hp))
	}
	return m
}

// result is everything one workload run reports.
type result struct {
	Workload   string             `json:"workload"`
	Provenance provenance         `json:"provenance"`
	Phases     map[string]float64 `json:"phase_seconds"`
	Correct    bool               `json:"correct"`
	Violations []string           `json:"violations,omitempty"`
	Ops        map[string]int64   `json:"ops"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

func (r result) attempted() int64 { return r.Ops["query_attempted"] + r.Ops["restore_attempted"] }
func (r result) failed() int64    { return r.Ops["query_failed"] + r.Ops["restore_failed"] }

// execute runs one workload: repeated set-up, the three phases, the
// oracles, and in a traced run the per-layer probes.
func execute(cfg runConfig, def workloadDef, log io.Writer) (result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	debug.SetGCPercent(gcPercent)
	res := result{Workload: def.name, Provenance: collectProvenance(cfg), Correct: true,
		Phases: map[string]float64{}, Ops: map[string]int64{}}

	// Set up several times and report the median; the last deployment is
	// the one measured.
	var w *world
	var setup samples
	t0 := time.Now()
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			// Drop the previous deployment before building the next, so
			// that peak memory is one deployment's, not three.
			w.be.Close()
			w = nil
			runtime.GC()
		}
		var err error
		if w, err = build(cfg, def); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup.addDur(w.st.total)
	}
	defer func() { w.be.Close() }()
	res.Phases["setup"] = time.Since(t0).Seconds()
	fmt.Fprintf(log, "%s: topology %s scale %g: %d nodes, %d links, %d LSPs; GOMAXPROCS %d of %d CPUs; %d set-ups\n",
		def.name, cfg.topology, cfg.scale, w.g.Order(), w.g.Size(), w.st.lsps, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.setups)
	if def.shape == shapeWire {
		fmt.Fprintln(log, "  traffic crosses Unix sockets (or in-process pipes) on this host, never a real link")
	}

	r := &run{cfg: cfg, def: def, w: w, be: w.be, o: newOracle(w.g)}
	r.pop = failurePopulation(w.g, r.o, func(e graph.EdgeID) int { return len(w.be.AffectedPairs(e)) })
	r.eps = episodes(r.pop, r.o)
	r.o.wrongAnswer = cfg.wrong
	if cfg.trace {
		r.tr = newTracer()
	}
	w.sink.takeSampled()
	r.stats[0] = r.be.Stats()
	total := time.Duration(cfg.seconds * float64(time.Second))
	phase := func(name string, share float64, f func(time.Duration)) {
		// Collect before each phase, so that where the collector's cycles
		// fall depends on the phase's own allocation, not on its
		// predecessor's.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f(time.Duration(share * float64(total)))
		res.Phases[name] = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		res.Notes = append(res.Notes, fmt.Sprintf("%s phase: %d collections, %.0f MB allocated, %.0f MB live at the end",
			name, m1.NumGC-m0.NumGC, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, float64(m1.HeapAlloc)/1e6))
	}
	// The load phase only feeds per-layer figures (see README.md: on a
	// machine with as few cores as load goroutines it measures the
	// scheduler), so only a traced run spends time on it.
	var loadAnswers []answer
	if cfg.trace {
		phase("load", tracedShareLoad, r.loadPhase)
		loadAnswers = w.sink.takeSampled()
	}
	r.stats[1] = r.be.Stats()
	bulk, serial := shareBulk, shareSerial
	if cfg.trace {
		bulk, serial = tracedShareBulk, tracedShareSerial
	}
	phase("bulk", bulk, r.bulkPhase)
	r.stats[2] = r.be.Stats()
	bulkAnswers := w.sink.takeSampled()
	phase("serial", serial, r.serialPhase)
	r.stats[3] = r.be.Stats()

	// Oracles, off the timed path.
	t0 = time.Now()
	var oracleRejected, unroutable int64
	checked := 0
	for _, group := range [][]answer{r.load.fgAnswer, loadAnswers, bulkAnswers, r.serial.asked} {
		for _, a := range group {
			checked++
			v, failedOp := r.o.check(a)
			if v != "" {
				oracleRejected++
				res.Violations = append(res.Violations, v)
			} else if failedOp {
				unroutable++
			}
		}
	}
	eqChecked, eqViolations := r.equivalence()
	res.Violations = append(res.Violations, eqViolations...)
	if def.shape == shapeWire {
		// Process-mode batch answers have no callback to sample; the
		// coordinator's own count of unroutable answers stands in.
		unroutable += r.stats[3].Unroutable - r.stats[0].Unroutable
	}
	res.Phases["oracles"] = time.Since(t0).Seconds()
	if checked == 0 || eqChecked == 0 || len(r.serial.restore) == 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("an oracle was not armed: %d answers, %d equivalence pairs, %d restored probes",
			checked, eqChecked, len(r.serial.restore)))
	}
	res.Correct = len(res.Violations) == 0
	if len(res.Violations) > 20 {
		res.Violations = append(res.Violations[:20], fmt.Sprintf("... and %d more", len(res.Violations)-20))
	}

	// Operation accounting: a query fails when it is shed in the load
	// phase, answered unroutable (the schedules keep every pair
	// connected) or rejected by the oracle; a restore probe of the serial
	// phase fails when its pair is still not delivered after the flush has
	// returned. A probe the prober gave up on after its 250 ms but that
	// the second pass found restored is late, not failed: its sample is in
	// the tail of the restore times. Probes of the load phase are timed
	// but not counted: there a timeout is the schedule repairing the link,
	// or the scheduler, more often than the system.
	shed := r.load.offered - r.load.accepted + (r.stats[1].Dropped - r.stats[0].Dropped) + r.load.fgShed
	res.Ops["query_attempted"] = r.load.offered + r.bulk.accepted + int64(len(r.load.fg)) + r.load.fgShed + int64(len(r.serial.asked)+eqChecked)
	res.Ops["query_failed"] = shed + unroutable + oracleRejected + int64(len(eqViolations))
	res.Ops["query_shed"] = shed
	res.Ops["query_unroutable"] = unroutable
	res.Ops["query_checked"] = int64(checked + eqChecked)
	probed, timeouts, lost := r.serial.probed()
	res.Ops["restore_attempted"] = int64(probed)
	res.Ops["restore_failed"] = int64(lost)
	res.Ops["restore_late"] = int64(timeouts - lost)
	res.Ops["churn_events"] = int64(r.load.events + r.serial.events)

	last := r.stats[3]
	res.EndToEnd = map[string]metric{
		"setup_s":            {Value: pct(setup.sorted(), 50) / 1e9, Unit: "s", N: len(setup)},
		"query_qps_sat":      {Value: pct(r.bulk.rates.sorted(), 50), Unit: "1/s", N: len(r.bulk.rates)},
		"restore_p50_ms":     timing(r.serial.restore, 50, "ms", ms),
		"churn_events_per_s": {Value: pct(r.serial.rates.sorted(), 50), Unit: "1/s", N: len(r.serial.rates)},
		"resident_row_mb":    {Value: float64(last.RowBytes) / 1e6, Unit: "MB"},
		"peak_rss_mb":        {Value: peakRSSMB(), Unit: "MB"},
	}
	if lag := pct(r.loadLag.sorted(), 99); cfg.trace && lag > 2e6 {
		res.Notes = append(res.Notes, fmt.Sprintf("load phase: generator lag p99 %.0f us exceeds 2 ms: the CPUs are saturated and part of the offered load left in bursts", us(lag)))
	}
	if cfg.trace {
		t0 = time.Now()
		res.PerLayer = r.perLayer()
		res.Phases["layers"] = time.Since(t0).Seconds()
		path := filepath.Join(cfg.outDir, "trace_"+def.name+".jsonl")
		if err := r.tr.write(path); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(r.tr.spans()), path))
	}
	return res, nil
}

// print writes the human-readable report: every metric by name with its
// unit and, for timings, its sample count and supported tail.
func (r result) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "%s: seed %d, %s/%s, %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		r.Workload, p.Seed, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Kernel, p.Commit)
	var ph []string
	for _, k := range sortedKeys(r.Phases) {
		ph = append(ph, fmt.Sprintf("%s %.2fs", k, r.Phases[k]))
	}
	fmt.Fprintf(w, "  phases: %s\n", strings.Join(ph, ", "))
	printMetrics(w, "end to end", r.EndToEnd)
	if r.PerLayer != nil {
		printMetrics(w, "per layer", r.PerLayer)
	}
	var ops []string
	for _, k := range sortedKeys(r.Ops) {
		ops = append(ops, fmt.Sprintf("%s=%d", k, r.Ops[k]))
	}
	fmt.Fprintf(w, "  ops: %s\n", strings.Join(ops, " "))
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(w, "  correct: %v (attempted %d, failed %d)\n", r.Correct, r.attempted(), r.failed())
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		line := fmt.Sprintf("    %-36s %14.4f %-6s", k, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Tail != "" {
			line += fmt.Sprintf(" %s=%.4f", m.Tail, m.TailValue)
		}
		fmt.Fprintln(w, line)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB sums VmHWM over this process and the shard workers it
// forked (its children started with -worker), read from /proc.
func peakRSSMB() float64 {
	self := os.Getpid()
	total := hwmKB(self)
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		if statusField(pid, "PPid:") != float64(self) {
			continue
		}
		if cmd, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid)); strings.Contains(string(cmd), "\x00-worker\x00") {
			total += hwmKB(pid)
		}
	}
	return total * 1024 / 1e6
}

func hwmKB(pid int) float64 { return statusField(pid, "VmHWM:") }

func statusField(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
