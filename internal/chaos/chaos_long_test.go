//go:build chaos

package chaos

import (
	"errors"
	"testing"

	"rbpc/internal/engine"
)

// The long conformance run, enabled by `go test -tags chaos` and wired
// into the verify gate under -race. It widens every budget the smoke
// variant bounds: bigger topology, more schedule seeds, longer schedules
// and deeper concurrent-failure bursts — every run of consecutive churn
// steps is one multi-link transition (Case.Run), so bursts collapse inside
// one rebuild and events cancel out before publication on every run.

func longCfg() Config {
	return Config{Nodes: 24, TopoSeed: 7, Steps: 150, MaxDown: 4}
}

// TestLongConformanceClean: the production engine over 20 seeds of long
// schedules, every oracle green.
func TestLongConformanceClean(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run")
	}
	c, v, err := Hunt(longCfg(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("production engine violated an oracle:\n%v\nschedule:\n%s", v, c.Schedule)
	}
}

// TestLongSchemeConformance: every restoration scheme over long schedules
// — local flavors held to the exact Section-4 recomputation, hybrid both
// converged and flood-frozen.
func TestLongSchemeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run")
	}
	for _, tc := range []struct {
		name   string
		scheme engine.Scheme
		frozen bool
	}{
		{"local", engine.SchemeLocal, false},
		{"bypass", engine.SchemeBypass, false},
		{"hybrid-converged", engine.SchemeHybrid, false},
		{"hybrid-frozen", engine.SchemeHybrid, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := longCfg()
			cfg.Scheme = tc.scheme
			cfg.FloodFrozen = tc.frozen
			c, v, err := Hunt(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("%s engine violated an oracle:\n%v\nschedule:\n%s", tc.name, v, c.Schedule)
			}
		})
	}
}

// TestLongHarnessCatchesEveryFault: fault detection at the long budget,
// with shrunk counterexamples replaying deterministically.
func TestLongHarnessCatchesEveryFault(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run")
	}
	for _, f := range engine.Faults() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			cfg := longCfg()
			cfg.Fault = f
			if f == engine.FaultStaleBypass {
				// The stale-bypass defect lives in the local-plan writer,
				// which only runs under a local scheme.
				cfg.Scheme = engine.SchemeBypass
			}
			c, v, err := Hunt(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("harness did not catch injected fault %v within budget", f)
			}
			t.Logf("caught %v as %s (shrunk to %d steps)", f, v.Kind, len(c.Schedule))
			_, rerr := c.Run()
			var rv *Violation
			if !errors.As(rerr, &rv) || rv.Kind != v.Kind {
				t.Fatalf("shrunk case does not replay: %v", rerr)
			}
		})
	}
}
