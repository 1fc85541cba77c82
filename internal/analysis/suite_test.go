package analysis

import (
	"path/filepath"
	"testing"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestImmutableFixture(t *testing.T) {
	RunFixture(t, fixture("immutable"), Immutable)
}

func TestGuardedByFixture(t *testing.T) {
	RunFixture(t, fixture("guardedby"), GuardedBy)
}

func TestLockOrderFixture(t *testing.T) {
	RunFixture(t, fixture("lockorder"), LockOrder)
}

func TestSnapshotEscapeFixture(t *testing.T) {
	RunFixture(t, fixture("snapshotescape"), SnapshotEscape)
}

func TestDeterministicFixture(t *testing.T) {
	RunFixture(t, fixture("deterministic"), Deterministic)
}

func TestDeterministicPkgFixture(t *testing.T) {
	RunFixture(t, fixture("deterministicpkg"), Deterministic)
}

func TestAllocProveFixture(t *testing.T) {
	RunFixture(t, fixture("allocprove"), AllocProve)
}

// TestSuiteNames pins the analyzer names: they are part of the
// //rbpc:allow vocabulary, so renaming one silently disables suppressions.
func TestSuiteNames(t *testing.T) {
	want := map[string]bool{
		"immutable": true, "guardedby": true, "lockorder": true,
		"snapshotescape": true, "deterministic": true, "allocprove": true,
	}
	if len(All) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(All), len(want))
	}
	for _, a := range All {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer name %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
