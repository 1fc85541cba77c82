package mpls

import (
	"fmt"
	"runtime"
	"slices"

	"rbpc/internal/graph"
	"rbpc/internal/par"
)

// LSP is an established label-switched path, or the record of one.
//
// A Network's LSP (EstablishLSP, EstablishLSPs) carries the labels laid out
// below and has its rows installed along the path. A record (Records)
// carries the ID and path only: it has no labels — SelfLabel reads 0,
// HopLabel finds none, and FirstHopLabel, ConcatStack and SelfStack are
// not for records — and installs nothing. It is what a process that only
// names LSPs needs of them.
//
// Label layout for a path v_0 e_0 v_1 e_1 ... e_{m-1} v_m:
//
//	self-label         — allocated by v_0; ILM row at v_0 swaps it to
//	                     hopLabels[0] and forwards on e_0. It exists so the
//	                     LSP can be the *second or later* component of a
//	                     concatenation: a pop at the previous LSP's egress
//	                     exposes the self-label, which v_0 then resolves.
//	hopLabels[i]       — allocated by v_{i+1}: the label carried on link
//	                     e_i. Transit routers swap hopLabels[i] ->
//	                     hopLabels[i+1]; the egress v_m pops hopLabels[m-1].
//
// With penultimate-hop popping (PHP) the router v_{m-1} pops instead of
// swapping and the egress installs no entry; the paper uses this for
// two-hop bypass paths ("no label overhead").
type LSP struct {
	ID   LSPID
	Path graph.Path
	PHP  bool

	self      [1]Label // the self-label, as the one-label stack push returns
	hopLabels []Label
}

// Ingress returns the LSP's first router.
func (l *LSP) Ingress() graph.NodeID { return l.Path.Src() }

// Egress returns the LSP's last router.
func (l *LSP) Egress() graph.NodeID { return l.Path.Dst() }

// SelfLabel returns the label that names this LSP at its own ingress —
// what a concatenating router pushes beneath the current stack so the
// packet continues onto this LSP.
func (l *LSP) SelfLabel() Label { return l.self[0] }

// FirstHopLabel returns the label the ingress sends on the first link.
func (l *LSP) FirstHopLabel() Label { return l.hopLabels[0] }

// FirstEdge returns the LSP's first link.
func (l *LSP) FirstEdge() graph.EdgeID { return l.Path.Edges[0] }

// HopLabel returns the label carried on the LSP's i-th link (the label
// with which the packet arrives at Path.Nodes[i+1]). Under PHP the last
// hop carries the inner stack and has no label of its own.
func (l *LSP) HopLabel(i int) (Label, bool) {
	if i < 0 || i >= len(l.hopLabels) || (l.PHP && i == len(l.hopLabels)-1) {
		return 0, false
	}
	return l.hopLabels[i], true
}

// row returns the ILM row the LSP installs at the at-th router of its path:
// the self-row at its ingress (0) and a swap at a transit router, each
// pushing the label of the link out and sending the packet on it; a pop at
// its egress (at the path's hop count), and under PHP a pop sent on the last
// link at the penultimate router. Out is a window of the LSP's hop labels.
//
//rbpc:hotpath
func (l *LSP) row(at int) ILMEntry {
	switch m := len(l.Path.Edges); {
	case at == m:
		return ILMEntry{OutEdge: LocalProcess, LSP: l.ID}
	case l.PHP && at == m-1:
		return ILMEntry{OutEdge: l.Path.Edges[at], LSP: l.ID}
	}
	return ILMEntry{Out: l.hopLabels[at : at+1 : at+1], OutEdge: l.Path.Edges[at], LSP: l.ID}
}

// push returns the FEC row that pushes the LSP's self-label for its ingress
// to process, which sends the packet along the LSP. Stack is a window of the
// record.
//
//rbpc:hotpath
func (l *LSP) push() FECEntry { return FECEntry{Stack: l.self[:], OutEdge: LocalProcess} }

// IncomingLabelAt returns the label with which packets on this LSP arrive
// at router v (which must be a non-ingress node of the path).
func (l *LSP) IncomingLabelAt(v graph.NodeID) (Label, bool) {
	for i := 1; i < len(l.Path.Nodes); i++ {
		if l.Path.Nodes[i] == v {
			return l.hopLabels[i-1], true
		}
	}
	return 0, false
}

// EstablishLSP provisions an LSP along path, allocating labels downstream
// and installing ILM rows at every router. It costs Hops() signaling
// messages (one label mapping per hop) plus one for the ingress self-row.
// The path must be nontrivial and usable (all links up). The LSP keeps a
// copy of path.
func (n *Network) EstablishLSP(path graph.Path) (*LSP, error) {
	return first(n.establish([]graph.Path{path.Clone()}, false))
}

// EstablishLSPPHP provisions an LSP with penultimate-hop popping: the
// egress holds no ILM row for it, so a 2-hop bypass adds no label state at
// the resumption router.
func (n *Network) EstablishLSPPHP(path graph.Path) (*LSP, error) {
	return first(n.establish([]graph.Path{path.Clone()}, true))
}

// EstablishLSPs provisions an LSP along each of paths, in order, exactly
// as EstablishLSP called on each in turn would — the same IDs, labels, ILM
// rows and signaling. The LSPs share paths, which the caller must not
// modify afterwards (a base set's stored paths, which nothing writes). At
// the first path EstablishLSP would refuse it stops and returns the LSPs
// established before it with the error.
//
// A large batch is established on every core: it is split into GOMAXPROCS
// contiguous chunks, which validate their paths and count the labels they
// take at each router in parallel; a prefix sum over the chunks gives each
// its first label at every router, each router's ILM table is sized once to
// its final length, and the chunks then install into disjoint slots in
// parallel. Every path is validated before any is installed, so the batch
// is cut at its first refused path whatever the chunking. A batch that
// takes labels at a router holding freed labels (TeardownLSP) runs as one
// chunk, which reuses them as EstablishLSP would.
func (n *Network) EstablishLSPs(paths []graph.Path) ([]*LSP, error) {
	return n.establish(paths, false)
}

// Records returns the LSPs a fresh network's EstablishLSPs would establish
// along paths, as records: the same IDs, from 1 in order, each sharing its
// path, and no labels. Nothing validates the paths; they are a base set's
// stored paths, which a network would establish as they are.
func Records(paths []graph.Path) []*LSP {
	recs := make([]LSP, len(paths))
	out := make([]*LSP, len(paths))
	for i, p := range paths {
		recs[i] = LSP{ID: firstLSPID + LSPID(i), Path: p}
		out[i] = &recs[i]
	}
	return out
}

func first(lsps []*LSP, err error) (*LSP, error) {
	if err != nil {
		return nil, err
	}
	return lsps[0], nil
}

// minChunk is the fewest LSPs a chunk of a batch establishes: a batch of
// fewer than twice as many runs as one chunk, on the caller's goroutine.
const minChunk = 256

// chunk is a contiguous part of a batch being established: paths[lo:hi],
// established on one goroutine.
type chunk struct {
	lo, hi int
	// hops counts the hops of the chunk's paths; err is the refusal of the
	// first path past them, which validation cut the chunk at.
	hops int
	err  error
	// next[v] counts the labels the chunk takes at router v, and then is
	// the next of them. A batch split into one chunk from the start, or
	// one layOutLabels turns back, has no next: it counts in the routers'
	// reserved and takes its labels through allocLabel.
	next []Label
	// first is the ID of the chunk's first LSP; lsps, labels and out are
	// its windows of the batch's records, hop labels and result.
	first  LSPID
	lsps   []LSP
	labels []Label
	out    []*LSP
}

// establish provisions an LSP along each of paths, sharing the path: the
// chunks validate and count in parallel, the batch is cut at its first
// refused path, every router's labels and ILM table are laid out once, and
// the chunks install in parallel. The LSP records and their hop labels are
// carved from one array each.
func (n *Network) establish(paths []graph.Path, php bool) ([]*LSP, error) {
	cs := make([]chunk, max(1, min(runtime.GOMAXPROCS(0), len(paths)/minChunk)))
	for i := range cs {
		c := &cs[i]
		c.lo, c.hi = i*len(paths)/len(cs), (i+1)*len(paths)/len(cs)
		if len(cs) > 1 {
			c.next = make([]Label, len(n.routers))
		}
	}
	par.Do(len(cs), func(i int) { n.check(&cs[i], paths, php) })
	var err error
	for i := range cs {
		if err = cs[i].err; err != nil {
			cs = cs[:i+1]
			break
		}
	}
	// A cut may leave one chunk, counted as a chunk of several: it lays out
	// its labels all the same.
	if cs[0].next != nil && !n.layOutLabels(cs) {
		one := chunk{hi: cs[len(cs)-1].hi}
		for i := range cs {
			one.hops += cs[i].hops
			for v, k := range cs[i].next {
				n.routers[v].reserved += int(k)
			}
		}
		cs = []chunk{one}
	}
	if cs[0].next == nil {
		for _, p := range paths[:cs[0].hi] {
			for _, v := range p.Nodes {
				if n.routers[v].reserved > 0 {
					n.routers[v].reserveILM()
				}
			}
		}
	}

	total, hops := cs[len(cs)-1].hi, 0
	for i := range cs {
		hops += cs[i].hops
	}
	lsps, labels, out := make([]LSP, total), make([]Label, hops), make([]*LSP, total)
	n.lsps = slices.Grow(n.lsps, total)[:len(n.lsps)+total]
	for i, at := 0, 0; i < len(cs); i++ {
		c := &cs[i]
		c.first = n.nextLSP + LSPID(c.lo)
		c.lsps, c.labels, c.out = lsps[c.lo:c.hi], labels[at:at+c.hops], out[c.lo:c.hi]
		at += c.hops
	}
	par.Do(len(cs), func(i int) {
		c := &cs[i]
		for j, p := range paths[c.lo:c.hi] {
			c.out[j] = n.install(c, p, php)
		}
	})
	n.nextLSP += LSPID(total)
	n.numLSPs += total
	n.stats.lspsEstablished.Add(int64(total))
	n.stats.signalingMsgs.Add(int64(hops + total)) // one mapping per hop + ingress row
	return out, err
}

// check validates the chunk's paths in order and counts their hops and the
// labels they take, cutting the chunk at the first path EstablishLSP would
// refuse. A path takes its self-label at its ingress and a hop label at
// every later router but, under PHP, its egress.
func (n *Network) check(c *chunk, paths []graph.Path, php bool) {
	for i := c.lo; i < c.hi; i++ {
		p := paths[i]
		if err := n.refuse(p, php); err != nil {
			c.hi, c.err = i, err
			return
		}
		c.hops += p.Hops()
		takers := p.Nodes
		if php {
			takers = takers[:len(takers)-1]
		}
		for _, v := range takers {
			if c.next != nil {
				c.next[v]++
			} else {
				n.routers[v].reserved++
			}
		}
	}
}

// refuse returns why EstablishLSP refuses path, nil if it does not.
func (n *Network) refuse(path graph.Path, php bool) error {
	if path.Hops() == 0 {
		return fmt.Errorf("%w: trivial path", errInvalidPath)
	}
	if err := path.Validate(n.g); err != nil {
		return fmt.Errorf("%w: %v", errInvalidPath, err)
	}
	for _, e := range path.Edges {
		if !n.edgeUp[e] {
			return fmt.Errorf("%w: link %d is down", errInvalidPath, e)
		}
	}
	if php && path.Hops() == 1 {
		return fmt.Errorf("%w: PHP needs at least 2 hops", errInvalidPath)
	}
	return nil
}

// layOutLabels turns the chunks' label counts into each chunk's first
// label at every router — the router's next label plus what the chunks
// before it take there — and, at every router the batch takes labels at,
// sizes the ILM table to its final length and moves the next label and the
// row count past the batch. The new slots are left for the chunks to fill:
// the batch installs a row at every label it takes. It reports false, and
// changes nothing, when such a router holds freed labels, which only
// allocLabel reuses.
func (n *Network) layOutLabels(cs []chunk) bool {
	for v, r := range n.routers {
		if len(r.freeList) == 0 {
			continue
		}
		for i := range cs {
			if cs[i].next[v] > 0 {
				return false
			}
		}
	}
	for v, r := range n.routers {
		at := r.nextLabel
		for i := range cs {
			k := cs[i].next[v]
			cs[i].next[v] = at
			at += k
		}
		if at > r.nextLabel {
			r.sizeILM(at) // the slots below the batch's labels stay empty
			r.ilmCount += int(at - r.nextLabel)
			r.nextLabel = at
		}
	}
	return true
}

// install establishes one LSP over path, which check has validated: its
// record, ID and hop labels taken from c, its labels from c's counts (or
// allocLabel) and its rows installed. establish counts the signaling.
func (n *Network) install(c *chunk, path graph.Path, php bool) *LSP {
	m := path.Hops()
	lsp := &c.lsps[0]
	c.lsps = c.lsps[1:]
	lsp.ID, lsp.Path, lsp.PHP = c.first, path, php
	c.first++
	lsp.hopLabels, c.labels = c.labels[:m:m], c.labels[m:]

	// Downstream assignment: v_{i+1} assigns the label for link e_i.
	// With PHP the egress assigns none; the final swap at v_{m-1} becomes
	// a pop.
	last := m
	if php {
		last = m - 1
	}
	for i := 0; i < last; i++ {
		lsp.hopLabels[i] = c.label(n, path.Nodes[i+1])
	}

	// One row at every router that took a label: the ingress's self-row
	// (0), and the row for the label of the hop into each later router,
	// which under PHP the egress has none of. Each slot names the LSP and
	// the router's position on it (LSP.row).
	lsp.self[0] = c.label(n, path.Src())
	c.setILM(n, path.Src(), lsp.self[0], ilmSlot{lsp: lsp.ID})
	for i := 1; i <= last; i++ {
		c.setILM(n, path.Nodes[i], lsp.hopLabels[i-1], ilmSlot{lsp: lsp.ID, at: int32(i)})
	}

	n.lsps[lsp.ID] = lsp
	return lsp
}

// label takes the chunk's next label at router v.
func (c *chunk) label(n *Network, v graph.NodeID) Label {
	if c.next == nil {
		return n.routers[v].allocLabel()
	}
	l := c.next[v]
	c.next[v]++
	return l
}

// setILM installs slot s for label l at router v. A chunk with counts
// writes its own slot of a table layOutLabels sized and counted.
func (c *chunk) setILM(n *Network, v graph.NodeID, l Label, s ilmSlot) {
	if c.next == nil {
		n.routers[v].setILM(l, s)
		return
	}
	n.routers[v].ilm[l] = s
}

// TeardownLSP removes the LSP's rows everywhere and releases its labels,
// costing one release message per hop. A FEC row installed as the LSP's
// (InstallFEC) stays, held whole: it pushes the self-label it pushed.
func (n *Network) TeardownLSP(id LSPID) error {
	lsp, ok := n.LSPByID(id)
	if !ok {
		return fmt.Errorf("mpls: teardown of unknown LSP %d", id)
	}
	m := lsp.Path.Hops()
	in := n.routers[lsp.Path.Src()]
	in.freeLabel(lsp.self[0])
	for d, fid := range in.fec {
		if fid == id {
			in.setSideFEC(graph.NodeID(d), lsp.push())
		}
	}
	last := m
	if lsp.PHP {
		last = m - 1
	}
	for i := 0; i < last; i++ {
		n.routers[lsp.Path.Nodes[i+1]].freeLabel(lsp.hopLabels[i])
	}
	n.lsps[id] = nil
	n.numLSPs--
	n.stats.lspsTornDown.Add(1)
	n.stats.signalingMsgs.Add(int64(m))
	return nil
}

// LSPByID returns an established LSP.
func (n *Network) LSPByID(id LSPID) (*LSP, bool) {
	if id < 0 || int(id) >= len(n.lsps) || n.lsps[id] == nil {
		return nil, false
	}
	return n.lsps[id], true
}

// NumLSPs returns the number of currently established LSPs.
func (n *Network) NumLSPs() int { return n.numLSPs }

// TotalILM returns the summed ILM sizes over all routers, and the largest
// single table.
func (n *Network) TotalILM() (total, max int) {
	for _, r := range n.routers {
		s := r.ILMSize()
		total += s
		if s > max {
			max = s
		}
	}
	return total, max
}

// CheckChain reports whether the LSPs concatenate: there is at least one,
// each after the first starts where the one before it ends, and none but
// the last uses PHP — under PHP the inner label is exposed one hop early,
// at the penultimate router of the previous LSP, which is only correct if
// that router equals the next LSP's ingress, and the general case is
// rejected.
func CheckChain(lsps []*LSP) error {
	if len(lsps) == 0 {
		return fmt.Errorf("mpls: empty concatenation")
	}
	for i := 1; i < len(lsps); i++ {
		if lsps[i-1].Egress() != lsps[i].Ingress() {
			return fmt.Errorf("mpls: LSP %d ends at %d but LSP %d starts at %d",
				lsps[i-1].ID, lsps[i-1].Egress(), lsps[i].ID, lsps[i].Ingress())
		}
		if lsps[i-1].PHP {
			return fmt.Errorf("mpls: LSP %d uses PHP and cannot be concatenated before another LSP", lsps[i-1].ID)
		}
	}
	return nil
}

// ConcatStack builds the label stack (bottom-first) that sends a packet
// along the concatenation of the given LSPs: the first hop label of the
// first LSP on top, then the self-labels of the remaining LSPs beneath it.
// It errors unless the LSPs chain (CheckChain).
func ConcatStack(lsps []*LSP) ([]Label, graph.EdgeID, error) {
	if err := CheckChain(lsps); err != nil {
		return nil, 0, err
	}
	// Bottom-first: deepest label continues the last LSP.
	stack := make([]Label, 0, len(lsps))
	for i := len(lsps) - 1; i >= 1; i-- {
		stack = append(stack, lsps[i].SelfLabel())
	}
	stack = append(stack, lsps[0].FirstHopLabel())
	return stack, lsps[0].FirstEdge(), nil
}

// SelfStack builds the label stack (bottom-first) of the concatenation's
// self-labels, for use with LocalProcess: the holding router resolves the
// top self-label through its own ILM. The first LSP must therefore start
// at the router that will process the stack. It errors unless the LSPs
// chain (CheckChain).
func SelfStack(lsps []*LSP) ([]Label, error) {
	if err := CheckChain(lsps); err != nil {
		return nil, err
	}
	stack := make([]Label, 0, len(lsps))
	for i := len(lsps) - 1; i >= 0; i-- {
		stack = append(stack, lsps[i].SelfLabel())
	}
	return stack, nil
}
