package mpls

import (
	"slices"

	"rbpc/internal/graph"
)

// PatchSet records a batch of ILM row replacements so they can be undone
// later — the bookkeeping behind locally-restored forwarding state. The
// engine's writer patches failure-adjacent routers when a link goes down
// (Section 4.2's local schemes) and must bring the patched rows in line
// with the next failed-set on the next transition; a PatchSet is that
// record, and Sync is that step.
//
// Every method may run against a different Network than the one before:
// the engine's net lineage is copy-on-write and linear, so a row replaced
// on epoch N's clone is present (by cloning) on epoch N+1's clone, where
// it is kept, rewritten or restored. A row is recorded at most once,
// however often it is rewritten, and always with the entry it displaced
// the first time. A PatchSet is writer-owned state — it is not safe for
// concurrent use.
type PatchSet struct {
	applied []ilmPatch
	index   map[patchKey]int // position in applied
	gen     uint64           // Sync pass counter; stamps the rows a pass wants
}

type patchKey struct {
	router graph.NodeID
	label  Label
}

type ilmPatch struct {
	patchKey
	prev ILMEntry // the displaced row, restored on revert
	cur  ILMEntry // the row as patched
	gen  uint64
}

// ILMPatch is one wanted row of a Sync: the ILM row for Label at Router
// should read Entry.
type ILMPatch struct {
	Router graph.NodeID
	Label  Label
	Entry  ILMEntry
}

func sameEntry(a, b ILMEntry) bool {
	return a.OutEdge == b.OutEdge && a.LSP == b.LSP && slices.Equal(a.Out, b.Out)
}

// record notes that the row at k now reads cur, having displaced prev if
// it was not patched before.
func (ps *PatchSet) record(k patchKey, prev, cur ILMEntry) {
	if j, ok := ps.index[k]; ok {
		ps.applied[j].cur, ps.applied[j].gen = cur, ps.gen
		return
	}
	if ps.index == nil {
		ps.index = make(map[patchKey]int)
	}
	ps.index[k] = len(ps.applied)
	ps.applied = append(ps.applied, ilmPatch{patchKey: k, prev: prev, cur: cur, gen: ps.gen})
}

func (ps *PatchSet) revert(n *Network, p ilmPatch) {
	if _, err := n.ReplaceILM(p.router, p.label, p.prev); err != nil {
		panic("mpls: reverting ILM patch: " + err.Error())
	}
}

// Sync makes the patched rows on n exactly want, writing only the
// difference to what the set has applied: a row that is wanted as it
// already reads is left alone, a row wanted differently is rewritten (its
// recorded displaced entry untouched), a new row is patched and recorded,
// and a recorded row no longer wanted is restored. The resulting tables
// equal restoring every recorded row and then patching every wanted one
// (the reference patchset_test.go keeps), but a router whose rows did not
// change is not written — so its copy-on-write table is not copied — which
// is what keeps the k-th failure of an episode from paying again for the
// k−1 links already down. When want names a row twice the first entry
// wins.
//
// Installed entries are copied, so want (and the label slices it points
// to) may live in scratch the caller reuses. Sync fails, with every row
// written so far recorded, if a wanted row does not exist; it panics if a
// recorded row has vanished — the engine's linear net lineage guarantees it
// cannot, so a miss is a lifecycle bug, not a recoverable condition.
func (ps *PatchSet) Sync(n *Network, want []ILMPatch) error {
	ps.gen++
	for i := range want {
		w := &want[i]
		k := patchKey{w.Router, w.Label}
		if j, ok := ps.index[k]; ok {
			p := &ps.applied[j]
			if p.gen == ps.gen {
				continue
			}
			p.gen = ps.gen
			if sameEntry(p.cur, w.Entry) {
				continue
			}
		}
		entry := w.Entry
		entry.Out = slices.Clone(entry.Out)
		prev, err := n.ReplaceILM(w.Router, w.Label, entry)
		if err != nil {
			return err
		}
		ps.record(k, prev, entry)
	}
	for j := 0; j < len(ps.applied); {
		p := ps.applied[j]
		if p.gen == ps.gen {
			j++
			continue
		}
		ps.revert(n, p)
		delete(ps.index, p.patchKey)
		last := len(ps.applied) - 1
		if j != last {
			ps.applied[j] = ps.applied[last]
			ps.index[ps.applied[j].patchKey] = j
		}
		ps.applied[last] = ilmPatch{}
		ps.applied = ps.applied[:last]
	}
	return nil
}

// Len returns the number of live (unreverted) patches.
func (ps *PatchSet) Len() int { return len(ps.applied) }
