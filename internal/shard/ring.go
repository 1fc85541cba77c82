package shard

import (
	"fmt"
	"sort"

	"rbpc/internal/graph"
)

// DefaultVNodes is the virtual-node count per shard when Config leaves it
// zero. Arc-length variance shrinks as 1/sqrt(vnodes); 1024 points per
// shard keeps every shard's source share within 10% of even on the full
// AS graph, while the ring stays a few thousand points — built in
// microseconds. Nothing searches it per query: each process fills an
// owner table from it once (Ring.Table) and reads that.
const DefaultVNodes = 1024

// MaxShards bounds a deployment's shard count: an owner-table entry is one
// byte, and the coordinator's batch path keeps one more slot value for
// "no shard holds a row for this source".
const MaxShards = 255

// DefaultRingSeed seeds the ring's hash when Config leaves it zero. The
// seed is part of the routing contract: every process of a deployment
// must build the ring from the same (shards, vnodes, seed) triple or
// they will disagree about ownership.
const DefaultRingSeed uint64 = 0x9e3779b97f4a7c15

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard that owns the arc ending there.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring is a consistent-hash ring over source routers: it maps every
// source to one of N shards via virtual nodes, so that shard counts can
// change without reshuffling the whole pair space (adding shard N moves
// only the sources whose successor point belongs to N). Rings are built
// once and never mutated — restarts with the same parameters rebuild the
// identical ring, which is what makes ownership a deployment-wide
// constant rather than per-process state.
//
//rbpc:immutable
type Ring struct {
	shards int
	vnodes int
	seed   uint64
	points []ringPoint // sorted by hash
}

// NewRing builds the ring for the (shards, vnodes, seed) triple. Virtual
// node j of shard i sits at splitmix64(seed, i, j); sources route to the
// first point clockwise of their own hash. Every shard process must build
// the identical ring from the triple, so construction is deterministic by
// contract.
//
//rbpc:ctor
//rbpc:deterministic
func NewRing(shards, vnodes int, seed uint64) (*Ring, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: ring needs 1 to %d shards, got %d", MaxShards, shards)
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	if seed == 0 {
		seed = DefaultRingSeed
	}
	r := &Ring{
		shards: shards,
		vnodes: vnodes,
		seed:   seed,
		points: make([]ringPoint, 0, shards*vnodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := splitmix64(seed ^ mix64(uint64(s)<<32|uint64(v)))
			r.points = append(r.points, ringPoint{hash: h, shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the sort —
		// and therefore ownership — is total and deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count the ring routes across.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning the source: the shard of the first
// virtual node clockwise of the source's hash (wrapping at the top). It is
// the definition of the partition, not its lookup — a hash and a binary
// search whose branches are random, ~70 ns, against a ~50 ns answer — so
// the serving code calls it only to fill an owner table (Table).
//
//rbpc:hotpath
func (r *Ring) Owner(src graph.NodeID) int {
	h := splitmix64(r.seed + uint64(src)*0x9e3779b97f4a7c15)
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return int(pts[lo].shard)
}

// Owners is the partition as a lookup: the owning shard of every source of
// an n-node topology, one byte a node (237 B at the benchmark's scale,
// 40 KB at the full AS graph), filled once per process by Ring.Table.
// Every process of a deployment builds the same ring and so the same
// table. Read it by index: Owners[src].
type Owners []uint8

// Table fills the owner table for sources 0..n-1.
//
//rbpc:deterministic
func (r *Ring) Table(n int) Owners {
	t := make(Owners, n)
	for src := range t {
		t[src] = uint8(r.Owner(graph.NodeID(src)))
	}
	return t
}

// Counts returns how many of the first n sources each shard owns —
// the balance diagnostic the ring tests assert on.
func (r *Ring) Counts(n int) []int {
	counts := make([]int, r.shards)
	for s := 0; s < n; s++ {
		counts[r.Owner(graph.NodeID(s))]++
	}
	return counts
}

// splitmix64 is the 64-bit finalizer of the SplitMix64 generator: a
// bijective mix whose output passes avalanche tests, which is all a
// consistent-hash ring needs from its point hash.
//
//rbpc:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64 decorrelates the (shard, vnode) packing before it meets the seed.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	return x ^ (x >> 33)
}
