package shardrpc

import (
	"strings"
	"testing"
)

// TestWorkerOptsRoundTrip: the spec string is the whole configuration
// channel to a worker process, so ParseWorkerOpts must invert Encode on
// every field.
func TestWorkerOptsRoundTrip(t *testing.T) {
	full := WorkerOpts{
		Topology: "as", Scale: 0.02, Seed: 7, Closure: true, HotSources: 40,
		Shards: 4, Index: 3,
		MaxProcs: 2, Workers: 2, Queue: 2048, PlanCacheMax: 256,
	}
	for _, tc := range []struct {
		name string
		mod  func(*WorkerOpts)
	}{
		{"every field set", func(*WorkerOpts) {}},
		{"fractional scale", func(o *WorkerOpts) { o.Scale = 0.1 + 0.2 }},
		{"negative seed", func(o *WorkerOpts) { o.Seed = -9 }},
		{"no closure", func(o *WorkerOpts) { o.Closure = false }},
		{"minimal", func(o *WorkerOpts) { *o = WorkerOpts{Topology: "isp", Shards: 1} }},
	} {
		o := full
		tc.mod(&o)
		got, err := ParseWorkerOpts(o.Encode())
		if err != nil {
			t.Errorf("%s: ParseWorkerOpts(%q): %v", tc.name, o.Encode(), err)
		} else if got != o {
			t.Errorf("%s: round trip through %q\n got %+v\nwant %+v", tc.name, o.Encode(), got, o)
		}
	}
}

func TestParseWorkerOptsRejects(t *testing.T) {
	for _, tc := range []struct{ name, spec, want string }{
		{"key without a value", "topo=as,closure,shards=1", "not k=v"},
		{"unknown key", "topo=as,shards=1,colour=red", "unknown key"},
		// A worker serves the listener its fleet hands it; the spec names
		// no socket.
		{"retired socket key", "topo=as,socket=s,shards=1", "unknown key"},
		{"unparsable value", "topo=as,shards=two", "shards"},
		{"missing topo", "shards=1", "missing"},
		{"missing shards", "topo=as", "missing"},
	} {
		if o, err := ParseWorkerOpts(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseWorkerOpts(%q) = %+v, %v; want an error containing %q", tc.name, tc.spec, o, err, tc.want)
		}
	}
}
