package chaos

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rbpc/internal/engine"
)

// smokeCfg is the bounded budget used in plain `go test`. The long
// harness (chaos_long_test.go, build tag "chaos") runs the same suite
// with a much larger budget under -race in the verify gate.
func smokeCfg() Config {
	return Config{Nodes: 14, TopoSeed: 3, Steps: 30, MaxDown: 3}
}

// TestConformanceClean: the production engine (FaultNone) survives the
// chaos schedules with every oracle green.
func TestConformanceClean(t *testing.T) {
	c, v, err := Hunt(smokeCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("production engine violated an oracle:\n%v\nschedule:\n%s", v, c.Schedule)
	}
}

// TestHarnessCatchesEveryFault is the harness's own conformance proof
// for every injectable engine defect (see catchShrinkReplay).
func TestHarnessCatchesEveryFault(t *testing.T) {
	for _, f := range engine.Faults() {
		cfg := smokeCfg()
		cfg.Fault = f
		if f == engine.FaultStaleBypass {
			// The stale-bypass defect lives in the local-plan writer,
			// which only runs under a local scheme.
			cfg.Scheme = engine.SchemeBypass
		}
		t.Run(f.String(), func(t *testing.T) { catchShrinkReplay(t, cfg) })
	}
}

// catchShrinkReplay: the hunt must find a violation of cfg's injected
// fault within the default budget, the shrunk counterexample must replay
// deterministically, and the corpus encoding must round-trip to an
// equally-failing case.
func catchShrinkReplay(t *testing.T, cfg Config) {
	c, v, err := Hunt(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatalf("harness did not catch injected fault %v within budget", cfg.Fault)
	}
	t.Logf("caught %v as %s (shrunk to %d steps)", cfg.Fault, v.Kind, len(c.Schedule))

	// Deterministic replay: the shrunk case fails the same way twice.
	for i := 0; i < 2; i++ {
		_, err := c.Run()
		var rv *Violation
		if !errors.As(err, &rv) {
			t.Fatalf("replay %d of shrunk case did not fail: %v", i, err)
		}
		if rv.Kind != v.Kind || rv.Step != v.Step {
			t.Fatalf("replay %d diverged: got %v, want %v", i, rv, v)
		}
	}

	// Corpus round-trip: encode, decode, and the decoded case still
	// fails identically.
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
	_, err = rc.Run()
	var rv *Violation
	if !errors.As(err, &rv) || rv.Kind != v.Kind {
		t.Fatalf("decoded case does not reproduce: %v", err)
	}
}

// TestSchemeConformanceClean runs the production engine through the same
// chaos schedules under every restoration scheme: the local flavors
// checked by exact Section-4 recomputation, hybrid both converged
// (zero-delay flood, flushed snapshots bit-identical to the source
// reference) and frozen (no source ever switches, the bypass flavor
// serves forever). Every oracle must stay green.
func TestSchemeConformanceClean(t *testing.T) {
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
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeCfg()
			cfg.Scheme = tc.scheme
			cfg.FloodFrozen = tc.frozen
			c, v, err := Hunt(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("%s engine violated an oracle:\n%v\nschedule:\n%s", tc.name, v, c.Schedule)
			}
		})
	}
}

// TestSchemeCorpusRoundTrip: scheme cases survive the corpus format, and
// source-scheme files stay byte-identical to the pre-scheme format (no
// scheme keys written).
func TestSchemeCorpusRoundTrip(t *testing.T) {
	cfg := smokeCfg()
	cfg.Scheme = engine.SchemeHybrid
	cfg.FloodFrozen = true
	c, err := Generate(cfg)
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

	src, err := Generate(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := WriteCase(&sb, src); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scheme", "flood-frozen"} {
		if bytes.Contains(sb.Bytes(), []byte(key)) {
			t.Fatalf("source-scheme corpus carries %q key:\n%s", key, sb.String())
		}
	}
}

// TestShrinkMinimal: the canonical stale-plan counterexample shrinks to a
// handful of steps — a shrinker that returns the full schedule is not
// doing its job.
func TestShrinkMinimal(t *testing.T) {
	cfg := smokeCfg()
	cfg.Fault = engine.FaultDropEpoch
	c, v, err := Hunt(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("drop-epoch not caught")
	}
	// The minimal drop-epoch reproduction is fail, repair, flush (3
	// steps); give the shrinker slack but insist on a real reduction.
	if len(c.Schedule) > 6 {
		t.Fatalf("shrunk schedule still has %d steps:\n%s", len(c.Schedule), c.Schedule)
	}
}

// TestRunTraceDeterministic: two runs of the same clean case replay alike —
// the replayability corpus files rely on (replayTwice).
func TestRunTraceDeterministic(t *testing.T) {
	r := replayTwice(t, smokeCfg())
	if r.Queries == 0 || r.Churn == 0 || r.Probes == 0 || r.Bursts == 0 {
		t.Fatalf("schedule exercised nothing, or no multi-link burst: %+v", r)
	}
	t.Logf("%d churn steps, %d of the bursts multi-link, %d queries, %d probes, %d epochs", r.Churn, r.Bursts, r.Queries, r.Probes, r.Epochs)
}

// replayTwice runs cfg's case twice and fails unless both runs are clean
// and their Reports agree on every count but Epochs, which the writers'
// timing sets (how many bursts one publish absorbed). It returns the first
// run's Report.
func replayTwice(t *testing.T, cfg Config) Report {
	t.Helper()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err1 := c.Run()
	r2, err2 := c.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("clean case failed: %v / %v", err1, err2)
	}
	a, b := r1, r2
	a.Epochs, b.Epochs = 0, 0
	if a != b {
		t.Fatalf("two runs of the same case differ:\n%+v\n%+v", r1, r2)
	}
	return r1
}

// TestCorpusRefusesRetiredFault: skip-fec-rewrite perturbed the engine's
// mirror of its routing matrix into the network's FEC tables; the mirror is
// gone, so the defect has no code to live in, and a corpus file that names it
// is refused with the name in the error instead of replaying as a clean run.
func TestCorpusRefusesRetiredFault(t *testing.T) {
	_, err := ReadCase(strings.NewReader("nodes 12\nfault skip-fec-rewrite\nschedule\nfail 1\n"))
	if err == nil || !strings.Contains(err.Error(), "skip-fec-rewrite") {
		t.Fatalf("ReadCase on a retired fault: %v, want an error naming it", err)
	}
}

// TestGenerateDeterministic: Generate is a pure function of the config.
func TestGenerateDeterministic(t *testing.T) {
	c1, err1 := Generate(smokeCfg())
	c2, err2 := Generate(smokeCfg())
	if err1 != nil || err2 != nil {
		t.Fatalf("Generate: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("Generate is not deterministic for a fixed config")
	}
}

// TestCorpusRejectsGarbage: malformed corpus files fail loudly.
func TestCorpusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",                                  // empty: no schedule section
		"nodes 12\n",                        // header only
		"nodes 12\nwibble 3\nschedule\n",    // unknown key
		"nodes 12\nfault lying\nschedule\n", // unknown fault
		"nodes 12\nscheme warp\nschedule\n", // unknown scheme
		"nodes 12\nflood-frozen x\nschedule\nfail 1\n", // non-numeric flag
		"nodes 12\nschedule\nexplode 1\n",              // unknown step
		"schedule\nfail 1\n",                           // missing nodes
		"nodes twelve\nschedule\nfail 1\n",             // non-numeric value
		"nodes 12 13\nschedule\nfail 1\n",              // extra operand
		"nodes 12\nschedule\nquery 1\n",                // short query
	} {
		if _, err := ReadCase(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("ReadCase accepted garbage %q", bad)
		}
	}
}
