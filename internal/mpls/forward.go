package mpls

import (
	"errors"
	"fmt"
	"slices"

	"rbpc/internal/graph"
)

// DefaultTTL bounds the number of links a packet may traverse; it doubles
// as the loop detector, exactly as the IP/MPLS TTL does.
const DefaultTTL = 255

// maxLocalOps bounds consecutive label operations at a single router, so a
// misconfigured ILM cannot spin the forwarder.
const maxLocalOps = 16

// Forwarding errors.
var (
	ErrTTLExpired   = errors.New("mpls: TTL expired (forwarding loop?)")
	ErrLinkDown     = errors.New("mpls: packet dropped on failed link")
	ErrNoRoute      = errors.New("mpls: no matching table entry")
	ErrLabelLoop    = errors.New("mpls: too many label operations at one router")
	ErrNotDelivered = errors.New("mpls: packet stopped before its destination")
)

// Packet is a labeled packet traversing the network.
type Packet struct {
	Src, Dst graph.NodeID
	// Stack holds the label stack, bottom first (the top of stack is the
	// last element).
	Stack []Label
	// At is the router currently holding the packet.
	At graph.NodeID
	// TTL is decremented per link; the packet is dropped at zero.
	TTL int
	// Hops counts traversed links.
	Hops int
	// Trace records the routers visited, starting with Src.
	Trace []graph.NodeID
}

// Top returns the top label.
//
//rbpc:hotpath
func (p *Packet) Top() (Label, bool) {
	if len(p.Stack) == 0 {
		return 0, false
	}
	return p.Stack[len(p.Stack)-1], true
}

// SendIP injects an unlabeled packet for dst at router src: the ingress
// consults its FEC table, pushes the configured stack and forwards. This
// is how traffic enters the MPLS cloud.
func (n *Network) SendIP(src, dst graph.NodeID) (*Packet, error) {
	fe, ok := n.routers[src].FECEntryFor(dst)
	if !ok {
		return nil, fmt.Errorf("router %d, dst %d: %w", src, dst, ErrNoRoute)
	}
	return n.inject(src, dst, slices.Clone(fe.Stack), fe.OutEdge, nil, nil)
}

// Send is SendIP for an ingress whose FEC row, link state and patched ILM
// rows the caller holds: the row for dst is the chain lsps (CheckChain),
// whose first LSP's ingress pushes their self-labels and processes the
// packet locally, and the packet is forwarded under fv and ov (Forward). The
// online engine keeps all three per epoch over one network it never writes.
func (n *Network) Send(dst graph.NodeID, lsps []*LSP, fv *graph.FailureView, ov *ILMOverlay) (*Packet, error) {
	stack, err := SelfStack(lsps)
	if err != nil {
		return nil, err
	}
	return n.inject(lsps[0].Ingress(), dst, stack, LocalProcess, fv, ov)
}

// inject labels a packet at src with stack, which it keeps, sends it out
// on first unless that is LocalProcess, and forwards it.
func (n *Network) inject(src, dst graph.NodeID, stack []Label, first graph.EdgeID, fv *graph.FailureView, ov *ILMOverlay) (*Packet, error) {
	pkt := &Packet{
		Src: src, Dst: dst,
		Stack: stack,
		At:    src,
		TTL:   DefaultTTL,
		Trace: []graph.NodeID{src},
	}
	if first != LocalProcess {
		if err := n.transmit(pkt, first, fv); err != nil {
			return pkt, err
		}
	}
	return pkt, n.Forward(pkt, fv, ov)
}

// SendOnLSPs injects a packet at the ingress of the first LSP and carries
// it across the concatenation of the given LSPs.
func (n *Network) SendOnLSPs(dst graph.NodeID, lsps []*LSP) (*Packet, error) {
	stack, first, err := ConcatStack(lsps)
	if err != nil {
		return nil, err
	}
	return n.inject(lsps[0].Ingress(), dst, stack, first, nil, nil)
}

// Forward runs the label-switching loop until the packet is delivered (at
// a router with an empty stack) or dropped. On success the packet rests at
// its final router with Stack empty. The loop reads link state and ILM rows
// through what it is handed: a link is up if fv keeps it (nil: the network's
// own link state, which FailEdge and RepairEdge move), and a row is ov's
// where ov has one (ILMRow).
func (n *Network) Forward(pkt *Packet, fv *graph.FailureView, ov *ILMOverlay) error {
	for {
		top, ok := pkt.Top()
		if !ok {
			// Stack empty: the packet has left the MPLS cloud at pkt.At.
			if pkt.At != pkt.Dst {
				return fmt.Errorf("popped out at router %d, want %d: %w", pkt.At, pkt.Dst, ErrNotDelivered)
			}
			n.stats.packetsForwarded.Add(1)
			return nil
		}
		ops := 0
		for {
			entry, ok := n.ILMRow(pkt.At, top, ov)
			if !ok {
				n.stats.packetsDropped.Add(1)
				return fmt.Errorf("router %d, label %d: %w", pkt.At, top, ErrNoRoute)
			}
			// Label operation: replace top with entry.Out.
			pkt.Stack = pkt.Stack[:len(pkt.Stack)-1]
			pkt.Stack = append(pkt.Stack, entry.Out...)
			if entry.OutEdge != LocalProcess {
				if err := n.transmit(pkt, entry.OutEdge, fv); err != nil {
					return err
				}
				break // continue outer loop at the new router
			}
			// Local processing: re-examine the (new) top, or deliver.
			top, ok = pkt.Top()
			if !ok {
				if pkt.At != pkt.Dst {
					return fmt.Errorf("popped out at router %d, want %d: %w", pkt.At, pkt.Dst, ErrNotDelivered)
				}
				n.stats.packetsForwarded.Add(1)
				return nil
			}
			ops++
			if ops > maxLocalOps {
				n.stats.packetsDropped.Add(1)
				return fmt.Errorf("router %d: %w", pkt.At, ErrLabelLoop)
			}
		}
	}
}

// transmit moves the packet across a link, enforcing link state — fv's, or
// the network's own when fv is nil — and TTL.
func (n *Network) transmit(pkt *Packet, e graph.EdgeID, fv *graph.FailureView) error {
	up := n.edgeUp[e]
	if fv != nil {
		up = fv.EdgeUsable(e)
	}
	if !up {
		n.stats.packetsDropped.Add(1)
		return fmt.Errorf("link %d at router %d: %w", e, pkt.At, ErrLinkDown)
	}
	edge := n.g.Edge(e)
	if edge.U != pkt.At && edge.V != pkt.At {
		n.stats.packetsDropped.Add(1)
		return fmt.Errorf("mpls: router %d asked to transmit on non-incident link %d", pkt.At, e)
	}
	if pkt.TTL <= 0 {
		n.stats.packetsDropped.Add(1)
		return fmt.Errorf("at router %d: %w", pkt.At, ErrTTLExpired)
	}
	pkt.TTL--
	pkt.Hops++
	pkt.At = edge.Other(pkt.At)
	pkt.Trace = append(pkt.Trace, pkt.At)
	return nil
}
