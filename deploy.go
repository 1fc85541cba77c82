package rbpc

import (
	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/ldp"
	"rbpc/internal/mpls"
	rbpcint "rbpc/internal/rbpc"
	"rbpc/internal/sim"
)

// Deployment is a provisioned RBPC installation over a simulated MPLS
// network: base LSPs established and FEC tables populated. Serve restores
// over it.
type Deployment = rbpcint.System

// DeployConfig controls pre-provisioning (see DefaultDeployConfig).
type DeployConfig = rbpcint.Config

// Pair is an ordered source-destination pair.
type Pair = rbpcint.Pair

// DefaultDeployConfig provisions the subpath closure and per-edge LSPs:
// restoration then never signals.
func DefaultDeployConfig() DeployConfig { return rbpcint.DefaultConfig() }

// NewDeployment provisions a full RBPC deployment over g.
func NewDeployment(g *Graph, cfg DeployConfig) (*Deployment, error) {
	return rbpcint.NewSystem(g, cfg)
}

// Server restores a deployment online: Fail and Repair links, Flush, and
// read each epoch's routes and forwarding (Snapshot, Snapshot.Send) under
// the scheme its configuration selects.
type Server = engine.Engine

// ServerConfig configures a Server (scheme, flood model, clock, workers).
type ServerConfig = engine.Config

// Scheme selects which of the paper's Section-4 restoration schemes a
// Server runs; FloodConfig models the link-state flood hybrid waits for.
type (
	Scheme      = engine.Scheme
	FloodConfig = engine.FloodConfig
)

// The restoration schemes: source-router RBPC (FEC rewrites), local
// end-route and edge-bypass RBPC (one ILM row at the adjacent router), and
// the hybrid of the two.
const (
	SchemeSource = engine.SchemeSource
	SchemeLocal  = engine.SchemeLocal
	SchemeBypass = engine.SchemeBypass
	SchemeHybrid = engine.SchemeHybrid
)

// Serve starts a Server over dep. Close it when done.
func Serve(dep *Deployment, cfg ServerConfig) (*Server, error) {
	return engine.New(dep.Export(), cfg)
}

// MPLS plane types re-exported for packet-level inspection.
type (
	// MPLSNetwork is the simulated forwarding plane.
	MPLSNetwork = mpls.Network
	// LSP is an established label-switched path.
	LSP = mpls.LSP
	// Label is an MPLS label (per-router label space).
	Label = mpls.Label
	// Packet is a labeled packet with its stack and trace.
	Packet = mpls.Packet
)

// NewMPLSNetwork builds a bare MPLS network over g (no LSPs).
func NewMPLSNetwork(g *Graph) *MPLSNetwork { return mpls.NewNetwork(g) }

// Engine is a deterministic discrete-event engine (simulated time in
// milliseconds).
type Engine = sim.Engine

// Baseline is conventional teardown-and-resignal restoration, for
// comparison.
type Baseline = rbpcint.Baseline

// SignalingConfig sets LDP message timing for the baseline.
type SignalingConfig = ldp.Config

// DefaultSignalingConfig uses 1ms links and 0.5ms processing.
func DefaultSignalingConfig() SignalingConfig { return ldp.DefaultConfig() }

// NewBaseline provisions conventional per-pair LSPs restored via LDP
// re-signaling.
func NewBaseline(g *Graph, eng *Engine, cfg SignalingConfig) (*Baseline, error) {
	return rbpcint.NewBaseline(g, eng, cfg)
}

// Connected reports whether all usable nodes of the view are mutually
// reachable.
func Connected(v graph.View) bool { return graph.Connected(v) }
