package shard

import (
	"testing"

	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// These tests keep the names they had when a consistent-hash ring filled
// the owner table; the ring is gone and the table is src mod N, but the
// properties they assert — determinism, balance, agreement of the table
// with its definition, and the refused shard counts — are the table's.

// fullASNodes is the paper's full-scale AS graph order (PaperAS at scale
// 1.0) — the source population the owner table must balance over.
const fullASNodes = 4746

// TestRingDeterministicAcrossRestarts: the owner table is a pure function of
// (shards, n), so a rebuild — another process, another restart — reads the
// same owner for every source.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	a, err := NewOwners(5, fullASNodes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOwners(5, fullASNodes)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if a[s] != b[s] {
			t.Fatalf("source %d: owner %d on first build, %d on rebuild", s, a[s], b[s])
		}
	}
}

// TestRingBalanceFullAS: the shards' counts differ by at most one, at the
// benchmark's order (237) and the full AS graph's (4746) as anywhere.
func TestRingBalanceFullAS(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, MaxShards} {
		for _, n := range []int{0, 1, 237, fullASNodes} {
			tab, err := NewOwners(shards, n)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, shards)
			for _, o := range tab {
				counts[o]++
			}
			lo, hi := counts[0], counts[0]
			for _, c := range counts {
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > 1 {
				t.Fatalf("shards=%d n=%d: shard counts range %d to %d", shards, n, lo, hi)
			}
		}
	}
}

// TestOwnerTableMatchesRing: the table every query reads is its definition,
// src mod N, entry for entry, and slicing a provision through it hands every
// primary to exactly its owner.
func TestOwnerTableMatchesRing(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, MaxShards} {
		for _, n := range []int{0, 1, 237, fullASNodes} {
			tab, err := NewOwners(shards, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab) != n {
				t.Fatalf("shards=%d: the table covers %d sources of %d", shards, len(tab), n)
			}
			for src, o := range tab {
				if int(o) != src%shards {
					t.Fatalf("shards=%d: source %d is owned by shard %d, want %d", shards, src, o, src%shards)
				}
			}
		}
	}

	g := topology.Waxman(14, 0.8, 0.5, 9)
	sys, err := rbpc.NewSystem(g, rbpc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Export()
	for _, shards := range []int{1, 2, 3, 8} {
		tab, err := NewOwners(shards, g.Order())
		if err != nil {
			t.Fatal(err)
		}
		prims, all := 0, countTrue(p.PrimaryMask())
		for i := 0; i < shards; i++ {
			sp := SliceProvision(p, tab, i)
			for src, served := range sp.Serves {
				if served != (int(tab[src]) == i) {
					t.Fatalf("shards=%d: shard %d's slice serves source %d %v, owned by %d", shards, i, src, served, tab[src])
				}
			}
			prims += countTrue(sp.PrimaryMask())
		}
		if prims != all {
			t.Fatalf("shards=%d: the slices hold %d primaries of %d", shards, prims, all)
		}
	}
}

// TestRingRejectsZeroShards: a deployment has a shard.
func TestRingRejectsZeroShards(t *testing.T) {
	for _, shards := range []int{0, -1} {
		if _, err := NewOwners(shards, 10); err == nil {
			t.Errorf("NewOwners(%d) accepted: a deployment has a shard", shards)
		}
	}
}

// TestRingRejectsTooManyShards: an owner-table entry is one byte.
func TestRingRejectsTooManyShards(t *testing.T) {
	if _, err := NewOwners(MaxShards+1, 10); err == nil {
		t.Fatalf("NewOwners(%d) accepted: an owner-table entry is one byte", MaxShards+1)
	}
}

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}
