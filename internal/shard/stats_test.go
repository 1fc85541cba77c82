package shard

import (
	"reflect"
	"testing"

	"rbpc/internal/engine"
)

// fillStats sets every field of an engine.Stats, nested ones included, to
// a distinct positive value, so a field added to the record is filled too.
func fillStats(t *testing.T) engine.Stats {
	var st engine.Stats
	next := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int64:
			v.SetInt(int64(next))
		case reflect.Uint64, reflect.Uint8:
			v.SetUint(uint64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.5)
		default:
			t.Fatalf("engine.Stats has a %s field, which is not fixed-size", v.Kind())
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	return st
}

// TestMergeStatsRules: merging a lone shard's record gives the record back
// — so every field of engine.Stats has a merge rule, since a field
// mergeEngine forgot would read zero — and merging two shards sums the
// counters, keeps the worst percentile and the dense baseline, weights the
// means, and adds the cold tier's answers and sheds.
func TestMergeStatsRules(t *testing.T) {
	st := fillStats(t)
	one := MergeStats([]engine.Stats{st}, st.Epoch, ColdStats{})
	if one.Shards != 1 || !reflect.DeepEqual(one.Stats, st) {
		t.Fatalf("one shard merged into %+v, want its record %+v", one.Stats, st)
	}

	cold := ColdStats{Queries: 10, Shed: 3}
	two := MergeStats([]engine.Stats{st, st}, 1, cold)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Epoch", two.Epoch, uint64(1)},
		{"Queries", two.Queries, 2*st.Queries + cold.Queries - cold.Shed},
		{"Dropped", two.Dropped, 2*st.Dropped + cold.Shed},
		{"RowBytes", two.RowBytes, 2 * st.RowBytes},
		{"DenseRowBytes", two.DenseRowBytes, st.DenseRowBytes},
		{"SnapshotAge", two.SnapshotAge, st.SnapshotAge},
		{"QueryLatency.Count", two.QueryLatency.Count, 2 * st.QueryLatency.Count},
		{"QueryLatency.P99", two.QueryLatency.P99, st.QueryLatency.P99},
		{"Stretch.Mean", two.Stretch.Mean, st.Stretch.Mean},
		{"Incremental.SolveNanos", two.Incremental.SolveNanos, 2 * st.Incremental.SolveNanos},
		{"Converged", two.Converged, 2 * st.Converged},
		{"Scheme", two.Scheme, st.Scheme},
	} {
		if c.got != c.want {
			t.Errorf("two shards: %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if two.Cold != cold || len(two.PerShard) != 2 {
		t.Errorf("two shards: cold %+v and %d per-shard records, want %+v and 2", two.Cold, len(two.PerShard), cold)
	}
}
