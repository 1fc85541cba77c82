package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectedFlags: each value is refused with exit 2, the flag named and
// nothing printed to stdout — so before any topology is built, which the
// first stdout line reports. Each used to run: the unknown table and figure
// built every topology, printed nothing and exited 0, and the negative cap
// sampled every edge.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown table", []string{"-table", "5"}, "-table must be 1, 2 or 3"},
		{"negative table", []string{"-table", "-1"}, "-table must be 1, 2 or 3"},
		{"unknown figure", []string{"-figure", "7"}, "-figure must be 10"},
		{"negative edge cap", []string{"-max-edges", "-5"}, "-max-edges must be 0"},
		{"unknown flag", []string{"-tabel", "1"}, "flag provided but not defined"},
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

// TestFailedWriteKeepsTheProfile: a JSON file that cannot be created exits
// 1 and names the file, and the CPU profile the run was recording is still
// written out; an os.Exit there used to skip the deferred
// pprof.StopCPUProfile and leave the profile empty.
func TestFailedWriteKeepsTheProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	bad := filepath.Join(dir, "missing", "out.json")
	var stdout, stderr strings.Builder
	code := run([]string{"-table", "1", "-cpuprofile", prof, "-json", bad}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), bad) {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming %s", code, stderr.String(), bad)
	}
	if !strings.Contains(stdout.String(), "=== Table 1") {
		t.Fatalf("stdout %q has no Table 1", stdout.String())
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile after the failed write: %v, %v; want a non-empty file", st, err)
	}
}
