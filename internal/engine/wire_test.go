package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/topology"
)

// snapsEqualBitwise asserts every pair of two snapshots answers
// identically: routability, Float64bits of cost, and component path
// sequences — the same identity the chaos shard-equivalence oracle
// demands of process-mode replicas.
func snapsEqualBitwise(t *testing.T, want, got *Snapshot, n int, tag string) {
	t.Helper()
	if want.Epoch() != got.Epoch() {
		t.Fatalf("%s: epoch %d decoded as %d", tag, want.Epoch(), got.Epoch())
	}
	wf, gf := want.Failed(), got.Failed()
	if len(wf) != len(gf) {
		t.Fatalf("%s: failed-set %v decoded as %v", tag, wf, gf)
	}
	for i := range wf {
		if wf[i] != gf[i] {
			t.Fatalf("%s: failed-set %v decoded as %v", tag, wf, gf)
		}
	}
	if want.Key() != got.Key() {
		t.Fatalf("%s: failed-set key %q decoded as %q", tag, want.Key(), got.Key())
	}
	for s := 0; s < n; s++ {
		src := graph.NodeID(s)
		if want.Materialized(src) != got.Materialized(src) {
			t.Fatalf("%s: source %d materialized mismatch", tag, s)
		}
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			dst := graph.NodeID(d)
			w, g := want.Route(src, dst), got.Route(src, dst)
			if (w == nil) != (g == nil) {
				t.Fatalf("%s: pair %d->%d routable %v decoded as %v", tag, s, d, w != nil, g != nil)
			}
			if w == nil {
				continue
			}
			if math.Float64bits(w.Cost) != math.Float64bits(g.Cost) {
				t.Fatalf("%s: pair %d->%d cost bits %x decoded as %x",
					tag, s, d, math.Float64bits(w.Cost), math.Float64bits(g.Cost))
			}
			if len(w.LSPs) != len(g.LSPs) {
				t.Fatalf("%s: pair %d->%d %d components decoded as %d", tag, s, d, len(w.LSPs), len(g.LSPs))
			}
			for i := range w.LSPs {
				if !w.LSPs[i].Path.Equal(g.LSPs[i].Path) {
					t.Fatalf("%s: pair %d->%d component %d path mismatch", tag, s, d, i)
				}
			}
		}
	}
}

// TestSnapshotWireRoundTrip drives an engine through churn and
// proves every published snapshot survives AppendWire/Decode bit-for-bit,
// including the oracle distances a decoded replica recomputes locally.
func TestSnapshotWireRoundTrip(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 41)
	eng, sys := newEngine(t, g, Config{})
	dec, err := NewSnapDecoder(sys.Export())
	if err != nil {
		t.Fatal(err)
	}
	n := g.Order()

	var buf []byte
	check := func(tag string) {
		t.Helper()
		snap := eng.Snapshot()
		buf = buf[:0]
		buf, err = snap.AppendWire(buf)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", tag, err)
		}
		snapsEqualBitwise(t, snap, got, n, tag)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				w := snap.Oracle().Dist(graph.NodeID(s), graph.NodeID(d))
				r := got.Oracle().Dist(graph.NodeID(s), graph.NodeID(d))
				if math.Float64bits(w) != math.Float64bits(r) {
					t.Fatalf("%s: oracle dist %d->%d bits %x decoded as %x",
						tag, s, d, math.Float64bits(w), math.Float64bits(r))
				}
			}
		}
	}

	check("pristine")
	rng := rand.New(rand.NewSource(7))
	down := make([]graph.EdgeID, 0, 4)
	for round := 0; round < 6; round++ {
		if len(down) > 2 {
			i := rng.Intn(len(down))
			eng.Repair(down[i])
			down = append(down[:i], down[i+1:]...)
		} else {
			ed := graph.EdgeID(rng.Intn(g.Size()))
			eng.Fail(ed)
			seen := false
			for _, e := range down {
				seen = seen || e == ed
			}
			if !seen {
				down = append(down, ed)
			}
		}
		eng.Flush()
		check("round")
	}
}

// TestReplicaSendMatchesEngine: a decoded replica forwards. Across a
// churn schedule, at every flush, every served pair's packet injected on
// the replica of the engine's snapshot ends where the engine's does, in as
// many hops, over the same routers, with the same label stack — the
// decoder's network is the provision's, and the replica's link state is
// its failed-set's view.
func TestReplicaSendMatchesEngine(t *testing.T) {
	g := topology.Waxman(14, 0.8, 0.5, 41)
	eng, sys := newEngine(t, g, Config{})
	dec, err := NewSnapDecoder(sys.Export())
	if err != nil {
		t.Fatal(err)
	}
	n := g.Order()
	detours := 0
	check := func(step int) {
		t.Helper()
		snap := eng.Snapshot()
		buf, err := snap.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				src, dst := graph.NodeID(s), graph.NodeID(d)
				rt := snap.Route(src, dst)
				if rt == nil {
					continue
				}
				want, werr := snap.Send(src, dst)
				got, gerr := rep.Send(src, dst)
				if werr != nil || gerr != nil {
					t.Fatalf("step %d: %d->%d: engine Send %v, replica Send %v", step, s, d, werr, gerr)
				}
				if got.At != want.At || got.Hops != want.Hops || !slices.Equal(got.Trace, want.Trace) || !slices.Equal(got.Stack, want.Stack) {
					t.Fatalf("step %d: %d->%d: replica walked %+v, engine %+v", step, s, d, got, want)
				}
				if len(rt.LSPs) > 1 {
					detours++
				}
			}
		}
	}
	check(0)
	for i, ev := range failure.ChurnSchedule(g, 24, 3, rand.New(rand.NewSource(3))) {
		eng.ApplyEvents([]failure.Event{ev})
		eng.Flush()
		check(i + 1)
	}
	if detours == 0 {
		t.Fatal("vacuous: no concatenated route was walked")
	}
}

// TestSnapDecoderDetached exercises the crash-recovery path: a detached
// snapshot for an arbitrary failed-set answers canonical rows only, knows
// the failure view, and reports the same materialization as the live
// engine's provision.
func TestSnapDecoderDetached(t *testing.T) {
	g := topology.Waxman(12, 0.8, 0.5, 5)
	eng, sys := newEngine(t, g, Config{})
	dec, err := NewSnapDecoder(sys.Export())
	if err != nil {
		t.Fatal(err)
	}
	ed := graph.EdgeID(3)
	snap := dec.Detached([]graph.EdgeID{ed}, 9)
	if snap.Epoch() != 9 {
		t.Fatalf("detached epoch %d", snap.Epoch())
	}
	if f := snap.Failed(); len(f) != 1 || f[0] != ed {
		t.Fatalf("detached failed-set %v", f)
	}
	live := eng.Snapshot()
	for s := 0; s < g.Order(); s++ {
		src := graph.NodeID(s)
		if dec.Materialized(src) != live.Materialized(src) {
			t.Fatalf("source %d: decoder materialized %v, engine %v",
				s, dec.Materialized(src), live.Materialized(src))
		}
		if !dec.Materialized(src) {
			continue
		}
		for d := 0; d < g.Order(); d++ {
			if s == d {
				continue
			}
			dst := graph.NodeID(d)
			w, got := live.Route(src, dst), snap.Route(src, dst)
			if (w == nil) != (got == nil) {
				t.Fatalf("pair %d->%d: canonical routable %v, detached %v", s, d, w != nil, got != nil)
			}
			if w != nil && math.Float64bits(w.Cost) != math.Float64bits(got.Cost) {
				t.Fatalf("pair %d->%d: canonical cost bits differ", s, d)
			}
		}
	}
	// The replica and the worker snapshot it stands in for agree on the
	// failed-set's key, one encoding per failed-set live or decoded.
	eng.Fail(ed)
	eng.Flush()
	if want := eng.Snapshot().Key(); want == "" || snap.Key() != want {
		t.Fatalf("detached key %q, the engine's for the same failed-set %q", snap.Key(), want)
	}
}

// TestSnapshotWireLocalStateRefuses: the local plan and flood horizons
// of the non-source schemes are not wire state, so their snapshots must
// refuse to serialize — pristine and churned alike — rather than ship a
// replica that would answer affected pairs from the overlay alone.
func TestSnapshotWireLocalStateRefuses(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 2)
	for _, sch := range []Scheme{SchemeLocal, SchemeBypass, SchemeHybrid} {
		eng, _ := newEngine(t, g, Config{Scheme: sch})
		if _, err := eng.Snapshot().AppendWire(nil); err == nil {
			t.Fatalf("pristine %v snapshot serialized", sch)
		}
		eng.Fail(1)
		eng.Flush()
		if _, err := eng.Snapshot().AppendWire(nil); err == nil {
			t.Fatalf("%v snapshot with a link down serialized", sch)
		}
	}
}

// TestSnapDecoderRejectsCorrupt flips every byte of a valid frame and
// feeds truncations of it; the decoder must error or succeed but never
// panic, and the pristine frame must still decode after the abuse.
func TestSnapDecoderRejectsCorrupt(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 8)
	eng, sys := newEngine(t, g, Config{})
	dec, err := NewSnapDecoder(sys.Export())
	if err != nil {
		t.Fatal(err)
	}
	eng.Fail(1)
	eng.Fail(4)
	eng.Flush()
	frame, err := eng.Snapshot().AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := dec.Decode(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mut := make([]byte, len(frame))
	for i := range frame {
		copy(mut, frame)
		mut[i] ^= 0xff
		dec.Decode(mut) // must not panic; errors are fine
	}
	if _, err := dec.Decode(frame); err != nil {
		t.Fatalf("pristine frame stopped decoding: %v", err)
	}
}

// TestSnapDecoderRefusesRoutesThatJoinNothing hand-builds snapshot frames a
// CRC would pass — one overlay entry each, well-formed but for the one
// thing the case names — and demands an error that says what failed: a
// present route with no component, a component naming an LSP the provision
// does not hold, components that do not chain, and a chain that does not
// join the pair it is filed under. The same route bytes go through
// DecodeRouteWire, the answer frames' entry, which sees everything but the
// pair.
func TestSnapDecoderRefusesRoutesThatJoinNothing(t *testing.T) {
	g := topology.Waxman(10, 0.8, 0.5, 8)
	_, sys := newEngine(t, g, Config{})
	prov := sys.Export()
	dec, err := NewSnapDecoder(prov)
	if err != nil {
		t.Fatal(err)
	}
	// a then b chain; a then c do not; nowhere is neither end of the chain.
	var a, b, c *mpls.LSP
	var top mpls.LSPID
	for _, l := range prov.BaseLSPs {
		top = max(top, l.ID)
	}
	for _, x := range prov.BaseLSPs {
		for _, y := range prov.BaseLSPs {
			if a == nil && x.Egress() == y.Ingress() && x.Ingress() != y.Egress() {
				a, b = x, y
			}
		}
	}
	for _, y := range prov.BaseLSPs {
		if y.Ingress() != a.Egress() {
			c = y
		}
	}
	src, dst := a.Ingress(), b.Egress()
	var nowhere graph.NodeID
	for nowhere == src || nowhere == dst {
		nowhere++
	}

	le := binary.LittleEndian
	route := func(ids ...mpls.LSPID) []byte {
		buf := le.AppendUint64([]byte{1}, math.Float64bits(2))
		buf = le.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = le.AppendUint32(buf, uint32(id))
		}
		return buf
	}
	frame := func(src, dst graph.NodeID, rt []byte) []byte {
		buf := le.AppendUint64(nil, 3)          // epoch
		buf = le.AppendUint32(buf, 1)           // one link down
		buf = le.AppendUint32(buf, 0)           //   link 0
		buf = le.AppendUint32(buf, 1)           // one overlay row
		buf = le.AppendUint32(buf, uint32(src)) //   of src
		buf = le.AppendUint32(buf, 1)           //   with one entry
		return append(le.AppendUint32(buf, uint32(dst)), rt...)
	}

	if _, err := dec.Decode(frame(src, dst, route(a.ID, b.ID))); err != nil {
		t.Fatalf("the well-formed frame the cases are cut from does not decode: %v", err)
	}
	for _, tc := range []struct {
		name     string
		src, dst graph.NodeID
		rt       []byte
		want     string // what the error must name
		route    bool   // DecodeRouteWire refuses the route bytes on their own too
	}{
		{"empty route", src, dst, route(), "component count 0", true},
		{"LSP ID past the table", src, dst, route(a.ID, top+1), "names LSP", true},
		{"LSP ID nobody holds", src, dst, route(a.ID, 0), "names LSP 0", true},
		{"broken chain", src, dst, route(a.ID, c.ID), "the one before it ends at", true},
		{"wrong destination", src, nowhere, route(a.ID, b.ID), "runs", false},
		{"wrong source", nowhere, dst, route(a.ID, b.ID), "runs", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dec.Decode(frame(tc.src, tc.dst, tc.rt))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: error %v, want one naming %q", err, tc.want)
			}
			if _, _, err := dec.DecodeRouteWire(tc.rt); (err != nil) != tc.route {
				t.Fatalf("DecodeRouteWire: error %v, want refusal %v", err, tc.route)
			}
		})
	}
}
