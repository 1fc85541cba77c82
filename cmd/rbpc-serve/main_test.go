package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpc/internal/shardrpc"
)

// TestMain doubles as the worker entry point: the fleet re-executes
// os.Args[0] with "-worker <spec>", and under go test that is this test
// binary, whose own flag parsing would reject the flag.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// syncBuf is an output sink safe for the writers run has besides its own
// goroutine: the kill timer and the fleet's reattach callback.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serve runs the command with TMPDIR pointed at a fresh directory (short,
// so the fleet's socket paths stay under the Unix limit) and checks what
// every exit path owes: run returns, and no fleet directory survives it —
// Fleet.Close removes it only after it has killed and waited on every
// worker.
func serve(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out, errOut syncBuf
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errOut) }()
	select {
	case code = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("rbpc-serve %v did not return\nstdout:\n%s\nstderr:\n%s", args, out.String(), errOut.String())
	}
	left, err := filepath.Glob(filepath.Join(tmp, "rbpc-w*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("rbpc-serve %v left worker fleet directories behind: %v", args, left)
	}
	return code, out.String(), errOut.String()
}

// window is a strict window small enough to be about correctness, not
// throughput: AS stand-in at scale 0.02, sub-second, a few thousand qps.
func window(extra ...string) []string {
	return append([]string{"-topology", "as", "-scale", "0.02", "-qps", "5000", "-duration", "400ms", "-strict"}, extra...)
}

// TestStrictWindow serves one strict window per backend shape. Exit 0 under
// -strict means 0 dropped, 0 unroutable, at least one time-to-restore
// sample.
func TestStrictWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		args  []string
		want  string // a report line only this shape prints
	}{
		{"engine/gomaxprocs=1", 1, nil, "time-to-restore (source):"},
		{"engine/gomaxprocs=8", 8, nil, "time-to-restore (source):"},
		{"hybrid", 8, []string{"-scheme", "hybrid", "-flood-detect", "2ms", "-flood-hop", "100us"}, "time-to-restore (hybrid):"},
		// The cold tier admits each burst's cold part as one unit, so its
		// queue of bursts covers the window's backlog at the default bound.
		{"shards=4/hot-set", 8, []string{"-shards", "4", "-hot-sources", "40", "-plan-cache-max", "256"}, "shards: 4;"},
		{"shard-procs=2", 8, []string{"-shard-procs", "2"}, "process mode: 0 worker restarts, 0 torn frames"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ambient := runtime.GOMAXPROCS(tc.procs)
			defer runtime.GOMAXPROCS(ambient)
			code, stdout, stderr := serve(t, window(tc.args...)...)
			if code != 0 || !strings.Contains(stdout, tc.want) {
				t.Fatalf("exit %d, want 0 and a %q line\nstdout:\n%s\nstderr:\n%s", code, tc.want, stdout, stderr)
			}
		})
	}
}

// TestStrictFailureReapsWorkers pins the exit path that used to leave
// through os.Exit past the deferred fleet close: a strict violation in
// process mode. The violation must be certain, and drops over the wire are
// not (a two-slot queue under 400k qps sheds anything from nothing to a few
// hundred queries), so the churn interval outlasts the window and leaves no
// time-to-restore sample. The command reports it with exit 1 and (checked
// by serve) still reaps its workers.
func TestStrictFailureReapsWorkers(t *testing.T) {
	code, stdout, stderr := serve(t, window("-shard-procs", "2", "-fail-every", "10s")...)
	if code != 1 || !strings.Contains(stderr, "strict mode: churn ran but") {
		t.Fatalf("exit %d, want 1 with the strict-mode no-samples line\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestKillWorkerRecovers drives the real fork, crash, respawn, Reattach
// path: worker 0 is killed 100ms into the window, its sources divert to
// the cold tier meanwhile, and every query is still answered.
func TestKillWorkerRecovers(t *testing.T) {
	code, stdout, stderr := serve(t, "-topology", "as", "-scale", "0.02", "-qps", "5000", "-duration", "1s",
		"-strict", "-shard-procs", "2", "-kill-worker-after", "100ms")
	if code != 0 ||
		!strings.Contains(stdout, "process mode: 1 worker restarts") ||
		!strings.Contains(stdout, "unroutable answers: 0;") {
		t.Fatalf("exit %d, want 0 with one worker restart and 0 unroutable\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestFleetAttachesWithoutASleep forks a two-worker fleet over a small
// topology and attaches to it. The fleet listens before it forks, so every
// dial of a worker succeeds — its first included, while the worker is
// still provisioning — and the attach waits for the worker on that first
// connection instead of failing it and pausing: each worker is dialed once,
// for its one connection, and no dial fails. Then worker 0 is killed; its
// replacement inherits the same listener, the coordinator reattaches it
// with one more dial, which does not fail, and answers a query of one of
// its sources from the replacement's replica.
func TestFleetAttachesWithoutASleep(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	wo := shardrpc.WorkerOpts{Topology: "as", Scale: 0.02, Seed: 1, Shards: 2, MaxProcs: 1}
	p, err := wo.Provision()
	if err != nil {
		t.Fatal(err)
	}
	up := make(chan int, 1)
	fleet, err := shardrpc.NewFleet(wo, func(i int) { up <- i })
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var mu sync.Mutex
	dials := make([]int, wo.Shards)
	failed := 0
	dial := func(i int) (net.Conn, error) {
		c, err := fleet.Dial(i)
		mu.Lock()
		defer mu.Unlock()
		dials[i]++
		if err != nil {
			failed++
		}
		return c, err
	}
	counts := func() ([]int, int) {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(dials), failed
	}

	start := time.Now()
	c, err := shardrpc.NewCoordinator(p, shardrpc.Config{Shards: 2, Dial: dial})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attach, nfailed := counts()
	if nfailed != 0 || attach[0] != 1 || attach[1] != 1 {
		t.Fatalf("attaching the fleet dialed its workers %v times with %d failed dials, want once each and none failed", attach, nfailed)
	}
	// A loose sanity bound: the fleet provisions a 0.02-scale topology.
	if limit := 10 * time.Second; took >= limit {
		t.Fatalf("NewCoordinator took %v over a freshly forked fleet, want under %v", took, limit)
	}

	const victim = 0 // owns source 0
	if err := fleet.Kill(victim); err != nil {
		t.Fatal(err)
	}
	select {
	case i := <-up:
		if i != victim {
			t.Fatalf("fleet respawned worker %d, want %d", i, victim)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the killed worker was not respawned within 30s")
	}
	if err := c.Reattach(victim); err != nil {
		t.Fatalf("reattaching the respawned worker: %v", err)
	}
	if !c.Shard(victim).Alive() {
		t.Fatal("the respawned worker is not alive after Reattach")
	}
	if again, nfailed := counts(); nfailed != 0 || again[victim] != 2 {
		t.Fatalf("reattaching worker %d took it from %d to %d dials with %d failed, want one more and none failed", victim, attach[victim], again[victim], nfailed)
	}
	before := c.Stats().Cold.Queries
	if res := c.Query(0, 1); res.Route == nil || res.Snap != c.Replica(victim) {
		t.Fatalf("(0,1) answered with %+v; want a route from the respawned worker's replica", res)
	}
	if c.Stats().Cold.Queries != before {
		t.Fatal("(0,1) was answered by the cold tier, not the respawned worker's replica")
	}
	if n := fleet.Restarts(); n != 1 {
		t.Fatalf("fleet counts %d restarts, want 1", n)
	}
}

// TestRejectedFlagCombos: each is refused with exit 2 before anything is
// provisioned or forked (the first stdout line reports the provision).
func TestRejectedFlagCombos(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"hot set without a coordinator", []string{"-hot-sources", "10"}, "-hot-sources needs"},
		{"two backends", []string{"-shards", "2", "-shard-procs", "2"}, "give one"},
		{"hybrid over shards", []string{"-scheme", "hybrid", "-shards", "2"}, "source-scheme only"},
		// Without the up-front check this one would print "hybrid" and
		// serve the source scheme: the worker spec carries no scheme.
		{"hybrid over worker processes", []string{"-scheme", "hybrid", "-shard-procs", "2"}, "source-scheme only"},
		// A burst of no queries never ends its window, a negative one panics
		// sizing it, and a rate of none has no pacing interval.
		{"empty bursts", []string{"-batch", "0"}, "-batch must be at least 1"},
		{"negative bursts", []string{"-batch", "-1"}, "-batch must be at least 1"},
		{"no query rate", []string{"-qps", "0"}, "-qps must be above 0"},
		{"negative query rate", []string{"-qps", "-5"}, "-qps must be above 0"},
		// Each of these used to serve: a clamped 16-node graph, a window of
		// no queries, and the flag's default under a negative count's name.
		{"no scale", []string{"-scale", "0"}, "-scale must be above 0"},
		{"negative scale", []string{"-scale", "-1"}, "-scale must be above 0"},
		{"negative window", []string{"-duration", "-1s"}, "-duration must be above 0"},
		{"no window", []string{"-duration", "0"}, "-duration must be above 0"},
		{"negative shards", []string{"-shards", "-3"}, "-shards must be 0"},
		{"negative worker processes", []string{"-shard-procs", "-1"}, "-shard-procs must be 0"},
		{"negative query workers", []string{"-workers", "-1"}, "-workers must be 0"},
		{"negative queue", []string{"-queue", "-5"}, "-queue must be at least 1"},
		{"no queue", []string{"-queue", "0"}, "-queue must be at least 1"},
		// And each of these exited 0 under another meaning: every source
		// hot, an unbounded plan cache, negative flood delays and a kill
		// that never fires.
		{"negative hot set", []string{"-hot-sources", "-5", "-shards", "2"}, "-hot-sources must be 0"},
		{"negative plan cache", []string{"-plan-cache-max", "-1"}, "-plan-cache-max must be 0"},
		{"negative flood detection", []string{"-scheme", "hybrid", "-flood-detect", "-5ms"}, "-flood-detect must be 0"},
		{"negative flood hop", []string{"-scheme", "hybrid", "-flood-hop", "-1ms"}, "-flood-hop must be 0"},
		// The cold tier's pool and queue bound are constants: its two
		// retired flags are refused as unknown, with any value.
		{"negative cold workers", []string{"-cold-workers", "-3"}, "flag provided but not defined: -cold-workers"},
		{"negative cold queue", []string{"-cold-queue", "-1"}, "flag provided but not defined: -cold-queue"},
		{"negative kill delay", []string{"-shard-procs", "2", "-kill-worker-after", "-1s"}, "-kill-worker-after must be 0"},
		// These exited 0 too: churn one link at a time (failure.ChurnSchedule
		// clamps the bound to 1), no churn at all, and a kill with no worker
		// process to kill; an unknown topology exited 1 from provisioning.
		{"no max down", []string{"-max-down", "0"}, "-max-down must be at least 1"},
		{"negative max down", []string{"-max-down", "-2"}, "-max-down must be at least 1"},
		{"negative churn interval", []string{"-fail-every", "-1s"}, "-fail-every must be 0"},
		{"kill without worker processes", []string{"-kill-worker-after", "1s"}, "-kill-worker-after needs -shard-procs"},
		{"unknown topology", []string{"-topology", "bogus"}, "-topology must be one of"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := serve(t, tc.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q", code, stdout, stderr, tc.want)
			}
		})
	}
}
