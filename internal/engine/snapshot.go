// Package engine is the online serving layer over the RBPC machinery: a
// long-running process that owns a provisioned System export and answers
// path/restoration queries at high rate while link failures and repairs
// churn underneath it.
//
// The concurrency model is single-writer, many-readers. All mutation goes
// through one writer goroutine that applies each burst of failure events
// whole (Engine.ApplyEvents: a burst is one transition), builds an
// immutable Snapshot for the new failed-set, and publishes it with one
// atomic pointer swap. Readers load the pointer and serve entirely from the
// snapshot — no locks, no allocation, and no torn state: every answer is
// consistent with exactly one epoch.
package engine

import (
	"errors"
	"fmt"
	"time"

	"rbpc/internal/graph"
	"rbpc/internal/mpls"
	"rbpc/internal/spath"
)

// Route is one served answer. For source-scheme answers (Via ==
// SchemeSource) it is the LSP concatenation currently restoring the pair
// and its cost in the original graph (which, by construction, is the true
// post-failure shortest distance); the label stack the source router pushes
// for it — the pair's FEC entry — is its LSPs' self-labels, derived where a
// packet is sent (Snapshot.Send). For local-scheme answers (Via ==
// SchemeLocal / SchemeBypass) the source keeps pushing its canonical stack
// and the restoration happens mid-path at patched ILM rows: LSPs is nil,
// Path is the concrete walk the patched data plane delivers, and Cost is
// that walk's cost — at least, and under the local schemes usually above,
// the post-failure shortest distance. A route decoded off the wire has the
// same shape as the engine's.
type Route struct {
	LSPs []*mpls.LSP
	Cost float64
	Via  Scheme
	Path graph.Path
}

// Snapshot is one epoch's immutable serving state. Everything reachable
// from a Snapshot is frozen: readers may use it concurrently and hold it
// across epochs (the writer never mutates a published snapshot, it builds
// a successor and swaps the pointer). It is also epoch-scoped: a reader
// may hold one across a query, but parking it in a long-lived structure
// serves stale routes forever — the only sanctioned long-lived holder is
// the engine's atomic.Pointer (snapshotescape enforces this).
//
//rbpc:immutable
//rbpc:epochscoped
type Snapshot struct {
	epoch  uint64
	failed []graph.EdgeID // sorted
	key    string         // canonical cache key of failed
	fv     *graph.FailureView
	oracle *spath.Oracle // shortest paths in fv (post-failure distances)

	// net is the engine's one network — the same pointer in every epoch,
	// written by none — and patch the LSP-named patches of this epoch's
	// failed-set, as ILM rows over its tables (nil: none, which is every
	// pristine and every source-scheme epoch). Together with fv they are
	// the epoch's data plane (Send, ILMRow). net is nil only in an engine
	// built on a write-side provision, whose patch holds the patches alone;
	// a replica decoded off the wire forwards over the provision's.
	net   *mpls.Network
	patch *mpls.ILMOverlay

	// canon and over are the routing matrix, [src][dst], stored as the
	// paper's observation about it: a restored route is the original with
	// a short splice, so an epoch differs from the pristine matrix in a
	// handful of entries. canon is the engine's canonical matrix — a slot
	// per pair into one route per served primary, the same table in every
	// epoch, with nil rows for sources the provision did not materialize —
	// and over holds one divergence row per source the current failed-set
	// touches (nil entry = the source serves pure canonical; nil slice = no
	// source diverges, which is every pristine epoch and every repair back
	// to one). A read consults the overlay first and falls back to
	// canonical. Row src of the matrix is also source src's FEC table —
	// each entry's LSPs name what src pushes for that destination (Send) —
	// so the paper's per-transition FEC delta is the rows that moved
	// between two epochs, and pointer-shared rows make the rest free.
	canon canonical
	over  []*planRow

	// rowBytes is the resident-byte accounting of this epoch's matrix (see
	// RowBytes): the materialized canonical rows plus the overlay. Zero on
	// a decoded replica, which accounts nothing.
	rowBytes int64

	created time.Time

	// Local-restoration serving state (Config.Scheme != SchemeSource).
	// local holds each affected pair's locally restored answer, in the
	// overlay's per-source row layout, and is consulted before the matrix;
	// under SchemeLocal/SchemeBypass it wins unconditionally, under
	// SchemeHybrid only until the querying
	// source's flood horizon passes (and only once srcReady marks the
	// phase-two snapshot whose rows actually hold the source plan).
	// horizon[src] is that source's switchover delay after detected, on
	// the snapshot's clock (nil = wall clock); maxHorizon is the largest
	// finite entry.
	scheme     Scheme
	local      *plan
	horizon    []time.Duration
	maxHorizon time.Duration
	detected   time.Time
	clock      func() time.Time
	srcReady   bool
	// preOver is the overlay the transition began with, which phase one
	// served: a hybrid phase-two source whose flood horizon has not passed
	// has not heard of the transition and still pushes from it (Send). Its
	// rows are the previous epoch's, already accounted there, so rowBytes
	// does not count them. Nil outside hybrid phase two.
	preOver []*planRow
}

// Epoch returns the snapshot's sequence number (0 = pristine).
//
//rbpc:hotpath
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Failed returns the links down in this epoch, sorted. Callers must not
// modify the returned slice.
func (s *Snapshot) Failed() []graph.EdgeID { return s.failed }

// Key returns the canonical encoding of the failed-set — the engine's plan
// cache key, equal exactly for snapshots (live or decoded) of one failed-set.
func (s *Snapshot) Key() string { return s.key }

// View returns the epoch's failure view of the topology.
func (s *Snapshot) View() *graph.FailureView { return s.fv }

// ErrNoDataPlane is Send's answer on a snapshot that holds no network: one
// of an engine over a write-side provision (Net nil), such as a worker
// process's, which answers no query. A replica decoded off the wire
// forwards over the provision's network.
var ErrNoDataPlane = errors.New("engine: snapshot holds no data plane")

// Send injects a packet for dst at src and forwards it over the engine's
// network under the epoch's link state (fv) and patch rows: src pushes its
// entry's LSPs in this epoch's matrix — the overlay's, else the canonical
// one. A local or bypass answer changes nothing at the source, which pushes
// what it pushed while the patched ILM rows do the rest; and a hybrid
// phase-two source the flood has not reached still pushes from the overlay
// the transition began with. A pair with no entry, or an unroutable one, is
// mpls.ErrNoRoute.
func (s *Snapshot) Send(src, dst graph.NodeID) (*mpls.Packet, error) {
	if s.net == nil {
		return nil, ErrNoDataPlane
	}
	rt := s.fecRoute(src, dst)
	if rt == nil {
		return nil, fmt.Errorf("router %d, dst %d: %w", src, dst, mpls.ErrNoRoute)
	}
	return s.net.Send(dst, rt.LSPs, s.fv, s.patch)
}

// fecRoute is src's FEC entry for dst as Send pushes it, nil for none.
func (s *Snapshot) fecRoute(src, dst graph.NodeID) *Route {
	rows := s.over
	if s.srcReady && !s.pastHorizon(src) {
		rows = s.preOver
	}
	if rt, ok := rowsGet(rows, src, dst); ok {
		return rt
	}
	return s.canon.route(src, dst)
}

// ILMRow returns the ILM row for label at router as this epoch forwards it
// — the epoch's patch row where a local scheme patched one, else the
// provision's — and false where the router has none, or on a worker
// process's snapshot, which holds no data plane.
func (s *Snapshot) ILMRow(router graph.NodeID, label mpls.Label) (mpls.ILMEntry, bool) {
	if s.net == nil {
		return mpls.ILMEntry{}, false
	}
	return s.net.ILMRow(router, label, s.patch)
}

// Oracle returns shortest-path distances in the epoch's failure view,
// computed lazily per source and memoized. Safe for concurrent use.
func (s *Snapshot) Oracle() *spath.Oracle { return s.oracle }

// Route returns the pair's current concatenation, or nil if the pair is
// unroutable in this epoch. The returned Route is immutable. A nil answer
// for a non-materialized source (see Materialized) means "no precomputed
// row", not "disconnected" — the sharded serving layer answers those
// pairs on demand.
//
//rbpc:hotpath
func (s *Snapshot) Route(src, dst graph.NodeID) *Route {
	// The local rows are read in place rather than through LocalRoute: the
	// call does not inline, and every query of every scheme passes here.
	if s.local != nil && int(src) < len(s.local.rows) {
		if lr := s.local.rows[src]; lr != nil {
			if rt, ok := lr.get(dst); ok {
				// Affected pair: the local answer wins until the source has
				// both heard of the failure (its flood horizon passed) and a
				// source plan to switch to (srcReady). A nil rt is a locally
				// unrestorable pair — served as unroutable, faithfully.
				if !s.srcReady || !s.pastHorizon(src) {
					return rt
				}
			}
		}
	}
	if int(src) < len(s.over) {
		if pr := s.over[src]; pr != nil {
			if rt, ok := pr.get(dst); ok {
				return rt
			}
		}
	}
	return s.canon.route(src, dst)
}

// Materialized reports whether the source has a precomputed serving row
// in this epoch. It is false for sources outside the provisioned hot set
// (a shard's slice, a hot-set provision), whose pairs must be answered by
// an on-demand base-set solve (Corollary 4 guarantees one exists whenever
// the pair is connected).
//
//rbpc:hotpath
func (s *Snapshot) Materialized(src graph.NodeID) bool {
	return s.canon.at[src] != nil
}

// RowBytes reports the resident bytes this snapshot's routing matrix
// keeps alive and the bytes a dense all-pairs matrix over the same
// topology would hold (top-level slice plus n slot cells per source). The
// two are equal for a snapshot at rest with every source hot; the ratio is
// the cold-pair saving.
func (s *Snapshot) RowBytes() (resident, dense int64) {
	n := int64(len(s.canon.at))
	return s.rowBytes, n*8 + n*n*canonCellBytes
}

// Age reports how long this snapshot has been the serving epoch (time
// since it was published).
func (s *Snapshot) Age() time.Duration { return time.Since(s.created) }

// pastHorizon reports whether src's flood horizon has passed: the modeled
// link-state flood of this epoch's transition reached src, so it may act
// on the full failed-set.
//
//rbpc:hotpath
func (s *Snapshot) pastHorizon(src graph.NodeID) bool {
	if int(src) >= len(s.horizon) {
		return true
	}
	h := s.horizon[src]
	if s.clock == nil {
		return time.Since(s.detected) >= h
	}
	return s.clock().Sub(s.detected) >= h // injectable test clock, production path is the time.Since branch above
}

// Scheme returns the restoration scheme this snapshot serves.
func (s *Snapshot) Scheme() Scheme { return s.scheme }

// HorizonPassed reports whether src's flood horizon for this epoch's
// transition has passed — under SchemeHybrid, whether src serves the
// source-router answer (given srcReady) rather than the local one. Always
// true outside SchemeHybrid's two-phase window (horizon is nil).
func (s *Snapshot) HorizonPassed(src graph.NodeID) bool { return s.pastHorizon(src) }

// MaxHorizon returns the largest finite flood horizon of this epoch's
// transition — when the last reachable router learns of it.
func (s *Snapshot) MaxHorizon() time.Duration { return s.maxHorizon }

// Converged reports whether this snapshot's answers are time-invariant
// from here on. Source, local, and bypass epochs always are; a hybrid
// epoch converges once its source rows are ready (phase two) and every
// reachable router's flood horizon has passed. A converged hybrid
// snapshot answers exactly like a source-scheme engine for every pair
// whose source the flood reached.
func (s *Snapshot) Converged() bool {
	if s.scheme != SchemeHybrid {
		return true
	}
	if !s.srcReady {
		return false
	}
	if s.clock == nil {
		return time.Since(s.detected) >= s.maxHorizon
	}
	return s.clock().Sub(s.detected) >= s.maxHorizon
}

// LocalRoute returns the pair's local answer in this epoch and whether
// the pair is affected — its canonical primary crosses a down link — under
// a local scheme. An affected pair with a nil route is locally
// unrestorable. Unlike Route it ignores the hybrid switchover: it reports
// what the patched data plane delivers, whoever is still served by it.
//
//rbpc:hotpath
func (s *Snapshot) LocalRoute(src, dst graph.NodeID) (*Route, bool) {
	if s.local == nil {
		return nil, false
	}
	return rowsGet(s.local.rows, src, dst)
}
