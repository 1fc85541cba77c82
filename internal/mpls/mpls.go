// Package mpls simulates the MPLS forwarding plane the paper's restoration
// schemes run on: label-switching routers with ILM (incoming label map) and
// FEC (forwarding equivalence class) tables, label stacks with push/swap/
// pop, LSP establishment and teardown with signaling accounting, and a
// packet forwarder with TTL-based loop detection.
//
// The model follows Section 2 of the paper:
//
//   - Each router owns a private label space and an ILM mapping incoming
//     labels to (replacement labels, outgoing interface).
//   - The FEC table is consulted only at the ingress: it maps a
//     destination to the label stack pushed onto packets entering the MPLS
//     cloud. Restoration by path concatenation rewrites only FEC entries
//     (source-router RBPC) or a single ILM entry at the router adjacent to
//     a failure (local RBPC) — never the interior of the network.
//   - Every LSP also installs a self-entry at its ingress so that a popped
//     stack can continue onto a following LSP: this is the stack mechanism
//     that makes concatenation work.
//
// A restoration's whole delta is therefore a few rows, and the package lets
// a caller hold it as exactly that. A provisioner writes its pristine rows
// into the tables (InstallFEC); the conventional baseline rewrites them as it
// re-signals. The online engine never writes: it forwards every epoch over
// one shared network through Send,
// handing the forwarding loop the epoch's FEC row, its link state (a
// graph.FailureView) and its patched ILM rows (an ILMOverlay).
package mpls

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"rbpc/internal/graph"
)

// Label is an MPLS label. Labels are meaningful per router: the same value
// names different LSPs at different routers.
type Label int32

// LSPID identifies an established LSP within a Network.
type LSPID int32

// LocalProcess marks an ILM entry that is processed locally rather than
// forwarded: after the label operation the router re-examines the packet
// (re-looking up the new top label, or delivering if the stack is empty).
const LocalProcess graph.EdgeID = -1

// ILMEntry is one row of a router's incoming label map. Processing a
// packet whose top label matches the row: the top label is removed and
// Out (bottom-first) is pushed in its place; then the packet is forwarded
// on OutEdge, or re-processed locally when OutEdge == LocalProcess.
//
//   - swap:       Out = [next], OutEdge = link
//   - pop (egress): Out = nil, OutEdge = LocalProcess
//   - local RBPC:  Out = [replacement sequence], OutEdge = link or LocalProcess
//
// It is the form a row is read and written in; a router holds the row an
// LSP installs as 8 bytes naming the LSP (Router, LSP.row).
type ILMEntry struct {
	Out     []Label
	OutEdge graph.EdgeID
	// LSP records which LSP installed the entry, for teardown accounting.
	LSP LSPID
}

// FECEntry is one row of a router's FEC table: the label stack (bottom
// first) pushed on packets for a destination, and the first outgoing link.
type FECEntry struct {
	Stack   []Label
	OutEdge graph.EdgeID
}

// Router is one LSR.
type Router struct {
	ID graph.NodeID

	// net is the network the router belongs to: an ILM or FEC slot names an
	// LSP of its registry.
	net *Network

	// ilm is the incoming label map, indexed by label: a router hands out
	// its labels densely from 16 up, so the label space is the table. A slot
	// names the LSP whose row it is and the router's position on that LSP's
	// path, and the row itself — its out-label and its link — is read off
	// the LSP's record (LSP.row). A slot is 8 bytes and holds no pointer, so
	// the collector never scans the table and a Clone copies it in one
	// memmove. A row no LSP installs (a merged tree's, ReplaceILM's) is held
	// whole in ilmSide, and its slot marks it (sideRow). The zero slot holds
	// no row.
	ilm      []ilmSlot
	ilmSide  map[Label]ILMEntry
	ilmCount int
	// fec is the FEC table, indexed by destination node ID (the FEC key
	// domain is exactly the node space): a slot names the LSP whose
	// self-label the row pushes (InstallFEC, LSP.push), or marks a row held
	// whole in fecSide (SetFEC); 0 is no row. The slice grows on demand
	// when the topology gains nodes.
	fec      []LSPID
	fecSide  map[graph.NodeID]FECEntry
	fecCount int

	nextLabel Label
	freeList  []Label
	// reserved counts the labels a batch of LSPs being established as one
	// chunk will allocate here (Network.establish); it is zero between
	// batches.
	reserved int
}

// ilmSlot is one ILM slot: the row LSP lsp installs at the at-th router of
// its path (LSP.row), or, when lsp is sideRow, the row held in the router's
// ilmSide. LSP IDs start at firstLSPID, so the zero slot is empty.
type ilmSlot struct {
	lsp LSPID
	at  int32
}

// sideRow in an ILM or FEC slot marks a row held whole in the router's side
// table.
const sideRow LSPID = -1

func newRouter(n *Network, id graph.NodeID, order int) *Router {
	return &Router{
		ID:        id,
		net:       n,
		fec:       make([]LSPID, order),
		nextLabel: 16, // labels 0-15 are reserved in real MPLS
	}
}

// allocLabel returns a fresh label from the router's space.
func (r *Router) allocLabel() Label {
	if n := len(r.freeList); n > 0 {
		l := r.freeList[n-1]
		r.freeList = r.freeList[:n-1]
		return l
	}
	l := r.nextLabel
	r.nextLabel++
	return l
}

func (r *Router) freeLabel(l Label) {
	if int(l) < len(r.ilm) && r.ilm[l] != (ilmSlot{}) {
		if r.ilm[l].lsp == sideRow {
			delete(r.ilmSide, l)
		}
		r.ilm[l] = ilmSlot{}
		r.ilmCount--
	}
	r.freeList = append(r.freeList, l)
}

// sizeILM extends the ILM table to span at least l slots, the new ones
// empty. A row installed at a new label goes through it, and a batch sizes
// the table for all its labels at once (layOutLabels, reserveILM).
func (r *Router) sizeILM(l Label) {
	if old := len(r.ilm); int(l) > old {
		r.ilm = slices.Grow(r.ilm, int(l)-old)[:l]
		clear(r.ilm[old:])
	}
}

// setILM installs slot s for label l, which holds no row or, when s marks
// a side row, the row being replaced.
func (r *Router) setILM(l Label, s ilmSlot) {
	r.sizeILM(l + 1)
	if r.ilm[l] == (ilmSlot{}) {
		r.ilmCount++
	}
	r.ilm[l] = s
}

// setSideILM installs (or replaces) row e for label l, held whole.
func (r *Router) setSideILM(l Label, e ILMEntry) {
	r.setILM(l, ilmSlot{lsp: sideRow})
	if r.ilmSide == nil {
		r.ilmSide = make(map[Label]ILMEntry)
	}
	r.ilmSide[l] = e
}

// reserveILM makes room in the ILM table for the router's next reserved
// labels, so that installing their rows grows the table at most once; it
// clears the count.
func (r *Router) reserveILM() {
	if need := int(r.nextLabel) + r.reserved - len(r.ilm); need > 0 {
		r.ilm = slices.Grow(r.ilm, need)
	}
	r.reserved = 0
}

// setFEC installs (or replaces) slot id for dst.
func (r *Router) setFEC(dst graph.NodeID, id LSPID) {
	if int(dst) >= len(r.fec) {
		r.fec = append(r.fec, make([]LSPID, int(dst)+1-len(r.fec))...)
	}
	switch r.fec[dst] {
	case 0:
		r.fecCount++
	case sideRow:
		delete(r.fecSide, dst)
	}
	r.fec[dst] = id
}

// setSideFEC installs (or replaces) row e for dst, held whole.
func (r *Router) setSideFEC(dst graph.NodeID, e FECEntry) {
	r.setFEC(dst, sideRow)
	if r.fecSide == nil {
		r.fecSide = make(map[graph.NodeID]FECEntry)
	}
	r.fecSide[dst] = e
}

// ILMSize returns the number of installed ILM entries — the hardware table
// footprint the paper's ILM stretch factor measures.
//
//rbpc:hotpath
func (r *Router) ILMSize() int { return r.ilmCount }

// ILMEntryFor returns the entry for an incoming label. A row an LSP
// installed is read off the LSP's record: its Out is a window of the LSP's
// hop labels, which nothing writes, so an entry stays what it was read as
// whatever later happens to the row.
//
//rbpc:hotpath
func (r *Router) ILMEntryFor(l Label) (ILMEntry, bool) {
	if l < 0 || int(l) >= len(r.ilm) {
		return ILMEntry{}, false
	}
	switch s := r.ilm[l]; {
	case s.lsp > 0:
		return r.net.lsps[s.lsp].row(int(s.at)), true
	case s.lsp == sideRow:
		return r.ilmSide[l], true
	}
	return ILMEntry{}, false
}

// FECEntryFor returns the FEC row for a destination. A row InstallFEC
// installed is read off its LSP's record, and its Stack is a window of
// that record, which nothing writes.
//
//rbpc:hotpath
func (r *Router) FECEntryFor(dst graph.NodeID) (FECEntry, bool) {
	if int(dst) >= len(r.fec) {
		return FECEntry{}, false
	}
	switch id := r.fec[dst]; {
	case id > 0:
		return r.net.lsps[id].push(), true
	case id == sideRow:
		return r.fecSide[dst], true
	}
	return FECEntry{}, false
}

// FECSize returns the number of installed FEC rows.
//
//rbpc:hotpath
func (r *Router) FECSize() int { return r.fecCount }

// FECDests returns the destinations the router has FEC rows for, in
// ascending order.
func (r *Router) FECDests() []graph.NodeID {
	out := make([]graph.NodeID, 0, r.fecCount)
	for d, id := range r.fec {
		if id != 0 {
			out = append(out, graph.NodeID(d))
		}
	}
	return out
}

// Stats counts control-plane work. Establishing an LSP of h hops costs h
// label-mapping messages (ordered downstream assignment); tearing one down
// costs h release messages. FEC and ILM rewrites are local operations —
// the zero-message property is exactly RBPC's selling point.
type Stats struct {
	LSPsEstablished  int
	LSPsTornDown     int
	SignalingMsgs    int
	FECUpdates       int
	ILMReplacements  int
	PacketsForwarded int
	PacketsDropped   int
}

// netStats is the live, atomically updated form of Stats. Data-plane
// counters (packets forwarded/dropped) are bumped by concurrent readers
// forwarding on a shared immutable network snapshot, so every counter is
// atomic.
type netStats struct {
	lspsEstablished  atomic.Int64
	lspsTornDown     atomic.Int64
	signalingMsgs    atomic.Int64
	fecUpdates       atomic.Int64
	ilmReplacements  atomic.Int64
	packetsForwarded atomic.Int64
	packetsDropped   atomic.Int64
}

func (s *netStats) snapshot() Stats {
	return Stats{
		LSPsEstablished:  int(s.lspsEstablished.Load()),
		LSPsTornDown:     int(s.lspsTornDown.Load()),
		SignalingMsgs:    int(s.signalingMsgs.Load()),
		FECUpdates:       int(s.fecUpdates.Load()),
		ILMReplacements:  int(s.ilmReplacements.Load()),
		PacketsForwarded: int(s.packetsForwarded.Load()),
		PacketsDropped:   int(s.packetsDropped.Load()),
	}
}

func (s *netStats) copyFrom(o *netStats) {
	s.lspsEstablished.Store(o.lspsEstablished.Load())
	s.lspsTornDown.Store(o.lspsTornDown.Load())
	s.signalingMsgs.Store(o.signalingMsgs.Load())
	s.fecUpdates.Store(o.fecUpdates.Load())
	s.ilmReplacements.Store(o.ilmReplacements.Load())
	s.packetsForwarded.Store(o.packetsForwarded.Load())
	s.packetsDropped.Store(o.packetsDropped.Load())
}

// Network is a set of LSRs over a topology, plus link up/down state for
// the data plane.
type Network struct {
	g       *graph.Graph
	routers []*Router
	// lsps is the LSP registry, indexed by LSPID: IDs are handed out
	// densely from firstLSPID (slot 0 is never used) and a torn-down LSP
	// leaves its slot nil, so len(lsps) == nextLSP. numLSPs counts the
	// established.
	lsps    []*LSP
	numLSPs int
	nextLSP LSPID
	edgeUp  []bool
	stats   netStats
}

// firstLSPID is the ID of a fresh network's first LSP.
const firstLSPID LSPID = 1

// NewNetwork builds an MPLS network over topology g with all links up.
func NewNetwork(g *graph.Graph) *Network {
	n := &Network{
		g:       g,
		routers: make([]*Router, g.Order()),
		lsps:    make([]*LSP, firstLSPID),
		edgeUp:  make([]bool, g.Size()),
		nextLSP: firstLSPID,
	}
	for i := range n.routers {
		n.routers[i] = newRouter(n, graph.NodeID(i), g.Order())
	}
	for i := range n.edgeUp {
		n.edgeUp[i] = true
	}
	return n
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Router returns the LSR with the given ID.
//
//rbpc:hotpath
func (n *Network) Router(id graph.NodeID) *Router { return n.routers[id] }

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats { return n.stats.snapshot() }

// EdgeUp reports whether the link is currently up.
//
//rbpc:hotpath
func (n *Network) EdgeUp(e graph.EdgeID) bool { return n.edgeUp[e] }

// FailEdge marks a link down. Established LSPs keep their table entries
// (the control plane has not reacted yet); packets crossing the link are
// dropped until restoration rewrites tables.
func (n *Network) FailEdge(e graph.EdgeID) { n.edgeUp[e] = false }

// RepairEdge marks a link up again.
func (n *Network) RepairEdge(e graph.EdgeID) { n.edgeUp[e] = true }

// SetFEC installs (or replaces) the FEC row for dst at router id. This is
// the entirety of source-router RBPC's data-plane action. The row is held
// as e is: the caller must not write its stack afterwards.
func (n *Network) SetFEC(id, dst graph.NodeID, e FECEntry) {
	n.routers[id].setSideFEC(dst, e)
	n.stats.fecUpdates.Add(1)
}

// InstallFEC installs, at l's ingress, the FEC row for dst that pushes l's
// self-label for the ingress to process — the row SetFEC(l.Ingress(), dst,
// FECEntry{Stack: []Label{l.SelfLabel()}, OutEdge: LocalProcess}) would
// install — held as l's ID in a 4-byte slot and read off l's record. l must
// be an LSP established in n. Provisioning installs a row per served pair
// this way.
func (n *Network) InstallFEC(dst graph.NodeID, l *LSP) error {
	if got, ok := n.LSPByID(l.ID); !ok || got != l {
		return fmt.Errorf("mpls: LSP %d is not established in this network", l.ID)
	}
	n.routers[l.Ingress()].setFEC(dst, l.ID)
	n.stats.fecUpdates.Add(1)
	return nil
}

// ClearFEC removes the FEC row for dst at router id, if any; subsequent
// traffic for dst entering at id is dropped (no route).
func (n *Network) ClearFEC(id, dst graph.NodeID) {
	r := n.routers[id]
	if int(dst) >= len(r.fec) || r.fec[dst] == 0 {
		return
	}
	if r.fec[dst] == sideRow {
		delete(r.fecSide, dst)
	}
	r.fec[dst] = 0
	r.fecCount--
	n.stats.fecUpdates.Add(1)
}

// ReplaceILM replaces the ILM row for label l at router id — local RBPC's
// single-table-entry action at the router adjacent to a failure. The
// previous entry is returned so the caller can undo the patch when the
// link recovers. The new row is held as e is: the caller must not write its
// out-labels afterwards.
func (n *Network) ReplaceILM(id graph.NodeID, l Label, e ILMEntry) (ILMEntry, error) {
	r := n.routers[id]
	prev, ok := r.ILMEntryFor(l)
	if !ok {
		return ILMEntry{}, fmt.Errorf("mpls: router %d has no ILM entry for label %d", id, l)
	}
	r.setSideILM(l, e)
	n.stats.ilmReplacements.Add(1)
	return prev, nil
}

// errInvalidPath reports an LSP establishment over a broken or malformed
// path.
var errInvalidPath = errors.New("mpls: invalid LSP path")
