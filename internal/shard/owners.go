package shard

import "fmt"

// MaxShards bounds a deployment's shard count: an owner-table entry is one
// byte, and the coordinator's batch path keeps one more slot value for
// "no shard holds a row for this source".
const MaxShards = 255

// Owners is the partition as a lookup: the owning shard of every source of
// an n-node topology, one byte a node (237 B at the benchmark's scale, 4.7 KB
// at the full AS graph). Read it by index: Owners[src].
type Owners []uint8

// NewOwners builds the owner table of a shards-way deployment over sources
// 0..n-1: source src belongs to shard src mod shards. The table is a pure
// function of (shards, n), so every process of a deployment builds the same
// one from its own provision without coordinating, and the shard counts
// differ by at most one.
//
//rbpc:deterministic
func NewOwners(shards, n int) (Owners, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: ownership needs 1 to %d shards, got %d", MaxShards, shards)
	}
	t := make(Owners, n)
	for src := range t {
		t[src] = uint8(src % shards)
	}
	return t, nil
}
