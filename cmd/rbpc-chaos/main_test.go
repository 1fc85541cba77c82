package main

import (
	"strings"
	"testing"
	"time"
)

// TestRejectedFlags: each value is refused with exit 2, the flag named and
// nothing printed to stdout. Each used to panic, run with another meaning
// (18 nodes reported as 0, a cap of one link) or report a clean hunt of
// nothing.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative nodes", []string{"-nodes", "-1"}, "-nodes must be at least 2"},
		{"no nodes", []string{"-nodes", "0"}, "-nodes must be at least 2"},
		{"one node", []string{"-nodes", "1"}, "-nodes must be at least 2"},
		{"no cap", []string{"-maxdown", "0"}, "-maxdown must be at least 1"},
		{"negative steps", []string{"-steps", "-1"}, "-steps must be at least 1"},
		{"no steps", []string{"-steps", "0"}, "-steps must be at least 1"},
		{"no runs", []string{"-runs", "0"}, "-runs must be at least 1"},
		{"unknown fault", []string{"-fault", "nope"}, "unknown fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q",
					code, stdout.String(), stderr.String(), tc.want)
			}
		})
	}
}

// TestTwoNodesReturns: a 2-node Waxman graph has one link, so the default
// cap of three links down is reached with every link down; the hunt used
// to hang there generating its schedule.
func TestTwoNodesReturns(t *testing.T) {
	var stdout, stderr strings.Builder
	done := make(chan int, 1)
	go func() { done <- run([]string{"-nodes", "2", "-runs", "2"}, &stdout, &stderr) }()
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(stdout.String(), "2 runs clean (2 nodes,") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and 2 clean runs of 2 nodes",
				code, stdout.String(), stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("rbpc-chaos -nodes 2 did not return")
	}
}
