package shardrpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"rbpc/internal/failure"
	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/rbpc"
)

// --- fixed-size frames -----------------------------------------------------

// A fixed-size frame's payload is the encoding/binary image of one value: a
// number, or a struct of fixed-size fields, written field by field in
// declaration order, little-endian, with no padding. The hello, the stats
// ack (engine.Stats itself), and the 8-byte flush ack and pong are such
// frames; a field added to their types crosses the wire with
// no codec change, and a field that is not fixed-size fails the encode.

// appendFixed appends the encoding/binary image of v to buf.
func appendFixed(buf []byte, v any) []byte {
	w := bytes.NewBuffer(buf)
	if err := binary.Write(w, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("shardrpc: %T is not a fixed-size frame: %v", v, err))
	}
	return w.Bytes()
}

// decodeFixed decodes p, which must be exactly the encoding/binary image
// of the value v points to, into it.
func decodeFixed(p []byte, v any) error {
	if n := binary.Size(v); len(p) != n {
		return fmt.Errorf("shardrpc: %T frame is %d bytes, want %d", v, len(p), n)
	}
	return binary.Read(bytes.NewReader(p), binary.LittleEndian, v)
}

// --- hello -----------------------------------------------------------------

// hello is the worker's side of the attach handshake, a fixed-size frame
// (32 bytes): the ownership contract (shard index and shard count: the
// worker serves the sources equal to shard mod shards), the topology
// fingerprint (orders must match or decoded node/edge IDs would mean
// different things), the LSP table's length and digest (registryDigest:
// decoded LSP IDs likewise) and the worker's current epoch.
type hello struct {
	Shard  uint32
	Shards uint32
	Nodes  uint32
	Links  uint32
	LSPs   uint32
	LSPSum uint32
	Epoch  uint64
}

// contract is the hello of shard idx as a process computes it from its own
// provision, epoch aside: the worker sends it, the coordinator expects it.
func contract(p rbpc.Provision, cfg Config, idx int) hello {
	return hello{
		Shard:  uint32(idx),
		Shards: uint32(cfg.Shards),
		Nodes:  uint32(p.Graph.Order()),
		Links:  uint32(p.Graph.Size()),
		LSPs:   uint32(len(p.BaseLSPs)),
		LSPSum: registryDigest(p.BaseLSPs),
	}
}

// registryDigest is the CRC-32C of a provision's LSP table in order: each
// LSP's ID, hop count, nodes and links. Two processes whose digests (and
// table lengths) agree resolve every LSP ID on the wire to the same path.
func registryDigest(lsps []*mpls.LSP) uint32 {
	var sum uint32
	var buf []byte
	for _, l := range lsps {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(l.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Path.Edges)))
		for _, v := range l.Path.Nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, e := range l.Path.Edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
		sum = crc32.Update(sum, castagnoli, buf)
	}
	return sum
}

// --- bursts ----------------------------------------------------------------

// appendBurst encodes a fail/repair event burst: count, then one
// (repair, edge) record per event.
func appendBurst(buf []byte, evs []failure.Event) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(evs)))
	for _, ev := range evs {
		var repair byte
		if ev.Repair {
			repair = 1
		}
		buf = binary.LittleEndian.AppendUint32(append(buf, repair), uint32(ev.Edge))
	}
	return buf
}

// decodeBurst appends the frame's events onto evs (reused across frames).
func decodeBurst(p []byte, evs []failure.Event) ([]failure.Event, error) {
	if len(p) < 4 {
		return evs, fmt.Errorf("shardrpc: short burst frame")
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p) != 4+5*n {
		return evs, fmt.Errorf("shardrpc: burst frame length %d does not hold %d events", len(p), n)
	}
	for i := 0; i < n; i++ {
		off := 4 + 5*i
		if p[off] > 1 {
			return evs, fmt.Errorf("shardrpc: burst event %d has bad repair byte", i)
		}
		evs = append(evs, failure.Event{
			Repair: p[off] == 1,
			Edge:   graph.EdgeID(binary.LittleEndian.Uint32(p[off+1:])),
		})
	}
	return evs, nil
}
