package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// provenance says where and on what a result was measured. Results from
// hosts that differ in CPU count, architecture or kernel are not
// comparable and -compare refuses them.
type provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Topology   string  `json:"topology"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
}

func collectProvenance(cfg runConfig) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Kernel: "unknown",
		GoVersion: runtime.Version(), Seed: cfg.seed, Seconds: cfg.seconds,
		Topology: cfg.topology, Scale: cfg.scale, Trace: cfg.trace,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(data))
	}
	return p
}

// spec is BENCHMARK.json, the contract this benchmark is run under.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// worse returns by what share of base the value is worse (negative when
// it is better), given the metric's direction.
func (m specMetric) worse(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	d := (v - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func readResults(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result)
	for _, r := range rs {
		out[r.Workload] = r
	}
	return out, nil
}

func writeResults(path string, rs []result) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints per-metric deltas of b against a, judged by the bounds
// of the spec, and reports whether any end-to-end metric or the share of
// failed operations got worse by more than its bound. Records from
// different hosts are refused.
func compare(w io.Writer, sp spec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range sp.Workloads {
		ra, inA := a[wl.Name]
		rb, inB := b[wl.Name]
		if !inA || !inB {
			continue
		}
		pa, pb := ra.Provenance, rb.Provenance
		if pa.NumCPU != pb.NumCPU || pa.GOARCH != pb.GOARCH || pa.Kernel != pb.Kernel {
			return false, fmt.Errorf("%s: records are from different hosts (%d CPUs %s %s vs %d CPUs %s %s): not comparable",
				wl.Name, pa.NumCPU, pa.GOARCH, pa.Kernel, pb.NumCPU, pb.GOARCH, pb.Kernel)
		}
		fmt.Fprintf(w, "%s (commit %s -> %s)\n", wl.Name, pa.Commit, pb.Commit)
		for _, m := range sp.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			d := m.worse(va, vb)
			verdict := "ok"
			if d > m.Bound {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(w, "  %-24s %14.4f -> %14.4f %-5s %+7.2f%% worse (bound %.0f%%) %s\n",
				m.Name, va, vb, m.Unit, 100*d, 100*m.Bound, verdict)
		}
		fa, fb := failShare(ra), failShare(rb)
		verdict := "ok"
		if fb > fa+0.001 {
			verdict, ok = "WORSE", false
		}
		fmt.Fprintf(w, "  %-24s %14.6f -> %14.6f share of operations failed %s\n", "ops_failed", fa, fb, verdict)
		if !rb.Correct {
			fmt.Fprintf(w, "  %s is not correct\n", pathB)
			ok = false
		}
	}
	return ok, nil
}

func failShare(r result) float64 {
	if r.attempted() == 0 {
		return 0
	}
	return float64(r.failed()) / float64(r.attempted())
}

// agreement prints, for every workload and end-to-end metric, the median,
// quartiles and spread of the repeated runs against the metric's bound,
// and reports whether every spread stays within it (set-up time excepted,
// as in the acceptance rule).
func agreement(w io.Writer, sp spec, runs map[string][]result) bool {
	ok := true
	for _, wl := range sp.Workloads {
		rs := runs[wl.Name]
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d runs\n", wl.Name, len(rs))
		for _, m := range sp.EndToEnd {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.EndToEnd[m.Name].Value)
			}
			s := spreadOf(vs)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated"
			case s.Share > m.Bound:
				verdict, ok = "SPREAD EXCEEDS BOUND", false
			case s.Share > m.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "  %-24s median %14.4f %-5s q1 %14.4f q3 %14.4f spread %6.2f%% bound %3.0f%% %s\n",
				m.Name, s.Median, m.Unit, s.Q1, s.Q3, 100*s.Share, 100*m.Bound, verdict)
		}
	}
	return ok
}
