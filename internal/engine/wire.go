// Snapshot wire codec: the engine-side serialization hooks of the
// process-mode shard transport (internal/shardrpc). A snapshot travels as
// its overlay only — epoch, failed-set, and the per-source divergence
// rows. The canonical matrix is never shipped: it is a pure function of
// the provision, so every process rebuilds it once from the topology
// (SnapDecoder) and the wire carries just the splice points — the
// snapshot layout's memory argument applied to the network.
//
// Costs cross the wire as raw Float64bits, so a decoded replica answers
// with the same bits the worker served — the bit-identity the chaos
// equivalence oracle demands. A route's components cross as the IDs of
// their LSPs (mpls.LSPID, one u32 each): every process of a deployment
// provisions the same LSPs under the same IDs (the transport's attach
// handshake compares a digest of the table), so a decoded route holds the
// replica's own established LSPs — the route is its LSPs, so a decoded
// route has the engine route's shape. A replica forwards too: the decoder
// keeps the provision's network, the one network every epoch forwards
// over, and a decoded epoch's link state is its failed-set's view, so
// Send on a replica walks exactly what the worker's engine would — which is
// why the process-mode coordinator answers queries and probes itself, and
// a worker's engine holds no network at all.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
)

// AppendWire serializes the snapshot's serving state — epoch, failed-set,
// and overlay rows — appending to buf (which may be nil) and returning
// the extended slice. Only source-scheme snapshots serialize: the local
// plan and the flood horizons of the other schemes are not wire state,
// and a replica decoded without them would answer affected pairs wrongly,
// so a snapshot carrying them reports an error.
func (s *Snapshot) AppendWire(buf []byte) ([]byte, error) {
	if s.local != nil {
		return nil, fmt.Errorf("engine: %v-scheme snapshot carries local restoration state, which does not serialize", s.scheme)
	}
	buf = binary.LittleEndian.AppendUint64(buf, s.epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.failed)))
	for _, e := range s.failed {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	rows := 0
	for _, pr := range s.over {
		if pr != nil {
			rows++
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	for src, pr := range s.over {
		if pr == nil {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pr.dsts)))
		for i, d := range pr.dsts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			buf = AppendRouteWire(buf, pr.routes[i])
		}
	}
	return buf, nil
}

// AppendRouteWire serializes one served route (nil encodes an unroutable
// override): presence byte, cost bits, and the IDs of the component LSPs.
func AppendRouteWire(buf []byte, rt *Route) []byte {
	if rt == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rt.Cost))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rt.LSPs)))
	for _, l := range rt.LSPs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.ID))
	}
	return buf
}

// SnapDecoder rebuilds engine snapshots from their wire overlay. It holds
// the shared canonical matrix — built once from the provision by
// newCanonical, as engine.New builds it, so canonical routes (and their
// cost bits) are identical to the worker's — the provision's LSP table
// keyed by LSP ID, which a decoded component is one bounds-checked read of,
// and the provision's network, which every snapshot it builds forwards over.
type SnapDecoder struct {
	g     *graph.Graph
	net   *mpls.Network
	canon canonical
	byID  []*mpls.LSP // dense, by mpls.LSPID; nil where the provision has no base LSP
	// pristineView is the injected FaultPristineView.
	pristineView bool
}

// NewSnapDecoder builds the decoder for a provision. The provision must
// be the full (unsliced) export of the deployment, so the decoder can
// answer for any shard's sources, and servable (rbpc.Provision.Servable).
// fault, at most one, is the deployment's injected defect: the decoder acts
// on FaultPristineView and ignores every other (production passes none).
func NewSnapDecoder(p rbpc.Provision, fault ...Fault) (*SnapDecoder, error) {
	if err := p.Servable(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	canon := newCanonical(p, p.PrimaryMask())
	var top mpls.LSPID
	for _, l := range p.BaseLSPs {
		top = max(top, l.ID)
	}
	byID := make([]*mpls.LSP, top+1)
	for _, l := range p.BaseLSPs {
		byID[l.ID] = l
	}
	return &SnapDecoder{g: p.Graph, net: p.Net, canon: canon, byID: byID,
		pristineView: slices.Contains(fault, FaultPristineView)}, nil
}

// Materialized reports whether the source has a canonical serving row.
// Materialization is static — the overlay only ever diverges provisioned
// rows — so this answers for every epoch, which is
// what lets the process-mode coordinator divert cold pairs without
// consulting any worker.
func (d *SnapDecoder) Materialized(src graph.NodeID) bool {
	return int(src) < len(d.canon.at) && d.canon.at[src] != nil
}

// Decode rebuilds a snapshot from AppendWire output: the shared canonical
// matrix plus the decoded overlay, with a locally recomputed failure view
// and distance oracle (deterministic, hence bit-identical to the
// worker's). The input is untrusted — a truncated or corrupt frame
// returns an error, never a panic — so the decoder is fuzzable.
//
//rbpc:ctor
func (d *SnapDecoder) Decode(data []byte) (*Snapshot, error) {
	c := wireCursor{data: data}
	epoch := c.u64()
	failed, err := d.decodeFailed(&c)
	if err != nil {
		return nil, err
	}
	n := d.g.Order()
	rows := int(c.u32())
	if rows < 0 || rows > n {
		return nil, fmt.Errorf("engine: decode: %d overlay rows on a %d-node graph", rows, n)
	}
	var over []*planRow
	if rows > 0 {
		over = make([]*planRow, n)
	}
	for r := 0; r < rows; r++ {
		src := int(c.u32())
		if c.err || src < 0 || src >= n {
			return nil, fmt.Errorf("engine: decode: overlay row source out of range")
		}
		if over[src] != nil {
			return nil, fmt.Errorf("engine: decode: duplicate overlay row for source %d", src)
		}
		cnt := int(c.u32())
		if cnt < 1 || cnt > n || cnt*5 > c.remaining() {
			return nil, fmt.Errorf("engine: decode: overlay row length %d implausible", cnt)
		}
		dsts := make([]graph.NodeID, cnt)
		routes := make([]*Route, cnt)
		for i := 0; i < cnt; i++ {
			dst := int(c.u32())
			if c.err || dst < 0 || dst >= n {
				return nil, fmt.Errorf("engine: decode: overlay destination out of range")
			}
			if i > 0 && graph.NodeID(dst) <= dsts[i-1] {
				return nil, fmt.Errorf("engine: decode: overlay destinations not strictly sorted")
			}
			dsts[i] = graph.NodeID(dst)
			rt, err := d.decodeRoute(&c)
			if err != nil {
				return nil, err
			}
			if rt != nil {
				if from, to := rt.LSPs[0].Ingress(), rt.LSPs[len(rt.LSPs)-1].Egress(); int(from) != src || int(to) != dst {
					return nil, fmt.Errorf("engine: decode: route of pair %d->%d runs %d->%d", src, dst, from, to)
				}
			}
			routes[i] = rt
		}
		over[src] = newPlanRow(dsts, routes)
	}
	if c.err {
		return nil, fmt.Errorf("engine: decode: truncated snapshot frame")
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("engine: decode: %d trailing bytes after snapshot", c.remaining())
	}
	snap := d.Detached(failed, epoch)
	snap.over = over
	return snap, nil
}

// DecodeRouteWire decodes one AppendRouteWire route from the front of
// data, returning the route and the number of bytes consumed. Nothing on
// the wire carries a lone route; the benchmark's per-layer probe times it.
func (d *SnapDecoder) DecodeRouteWire(data []byte) (*Route, int, error) {
	c := wireCursor{data: data}
	rt, err := d.decodeRoute(&c)
	if err != nil {
		return nil, 0, err
	}
	return rt, c.off, nil
}

// decodeRoute decodes one AppendRouteWire route against the decoder's LSP
// table: every component is an established LSP of the provision, there is
// at least one, and each begins where the one before it ends. Whether the
// chain joins the pair it is filed under is the caller's to check (Decode
// does).
func (d *SnapDecoder) decodeRoute(c *wireCursor) (*Route, error) {
	p := c.u8()
	if c.err {
		return nil, fmt.Errorf("engine: decode: truncated route")
	}
	switch p {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("engine: decode: bad route presence byte")
	}
	cost := math.Float64frombits(c.u64())
	ncomp := int(c.u32())
	if c.err || ncomp < 1 || ncomp*4 > c.remaining() {
		return nil, fmt.Errorf("engine: decode: route component count %d implausible", ncomp)
	}
	lsps := make([]*mpls.LSP, ncomp)
	for i := range lsps {
		id := c.u32()
		if uint64(id) >= uint64(len(d.byID)) || d.byID[id] == nil {
			return nil, fmt.Errorf("engine: decode: route component %d names LSP %d, which the provision does not hold", i, id)
		}
		lsps[i] = d.byID[id]
		if i > 0 && lsps[i-1].Egress() != lsps[i].Ingress() {
			return nil, fmt.Errorf("engine: decode: route component %d (LSP %d) starts at %d, the one before it ends at %d",
				i, id, lsps[i].Ingress(), lsps[i-1].Egress())
		}
	}
	return &Route{LSPs: lsps, Cost: cost}, nil
}

// Detached builds a canonical-only snapshot for an arbitrary failed-set:
// shared canonical rows, nil overlay, the provision's network, and a
// locally computed failure view and oracle. Decode builds every replica on
// one, and the process-mode coordinator solves cold-tier queries against
// one when the owning worker is down — Corollary 4 answers any source
// from the base set, which is exactly what crash recovery leans on. The
// failed slice must be sorted ascending; it is retained.
func (d *SnapDecoder) Detached(failed []graph.EdgeID, epoch uint64) *Snapshot {
	down := failed
	if d.pristineView {
		down = nil // injected defect: the view forgets the failed links
	}
	fv := graph.FailEdges(d.g, down...)
	return &Snapshot{
		epoch:   epoch,
		failed:  failed,
		key:     failedKey(failed),
		fv:      fv,
		net:     d.net,
		oracle:  epochOracle(nil, fv),
		canon:   d.canon,
		created: time.Now(),
		scheme:  SchemeSource,
	}
}

func (d *SnapDecoder) decodeFailed(c *wireCursor) ([]graph.EdgeID, error) {
	cnt := int(c.u32())
	if cnt < 0 || cnt > d.g.Size() || cnt*4 > c.remaining() {
		return nil, fmt.Errorf("engine: decode: failed-set length %d implausible", cnt)
	}
	failed := make([]graph.EdgeID, cnt)
	for i := 0; i < cnt; i++ {
		e := int(c.u32())
		if c.err || e < 0 || e >= d.g.Size() {
			return nil, fmt.Errorf("engine: decode: failed edge out of range")
		}
		if i > 0 && graph.EdgeID(e) <= failed[i-1] {
			return nil, fmt.Errorf("engine: decode: failed-set not strictly sorted")
		}
		failed[i] = graph.EdgeID(e)
	}
	if cnt == 0 {
		failed = nil
	}
	return failed, nil
}

// wireCursor is a bounds-checked reader over one little-endian frame.
// Reads past the end set err and return zero; callers check err once per
// structure instead of per field.
type wireCursor struct {
	data []byte
	off  int
	err  bool
}

func (c *wireCursor) remaining() int { return len(c.data) - c.off }

func (c *wireCursor) u8() byte {
	if c.off+1 > len(c.data) {
		c.err = true
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

func (c *wireCursor) u32() uint32 {
	if c.off+4 > len(c.data) {
		c.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v
}

func (c *wireCursor) u64() uint64 {
	if c.off+8 > len(c.data) {
		c.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}
