package chaos

import (
	"errors"

	"rbpc/internal/failure"
)

// A schedule counts as failing only if it fails the same way (same
// oracle, same step) on a fixed number of consecutive runs: with its
// flush steps removed a schedule can trip an oracle only when the engine
// writer happens to coalesce adjacent events one way, and a reduction
// kept on the strength of one such run would not replay. The search asks
// for shrinkReplays runs of every candidate; it tries hundreds, so one
// that fails four runs in five still slips through now and then, and the
// result is therefore confirmed on confirmReplays runs, falling back
// through the reductions accepted before it to the last one that holds.
const (
	shrinkReplays  = 5
	confirmReplays = 50
)

// Shrink minimizes a failing case's schedule by delta debugging (ddmin):
// it repeatedly tries removing contiguous chunks of steps, keeping any
// candidate that still trips an oracle on shrinkReplays consecutive runs,
// halving the chunk size until single steps no longer come out, and
// confirms what it found (see confirmReplays). Subsets are always valid
// schedules because the engine absorbs redundant events (failing a down
// link or repairing an up link is a no-op), matching the reference
// model's map semantics.
//
// Shrink returns the smallest failing case found and its violation. A
// nil violation means the input case did not fail on re-run (the
// original failure was a non-deterministic scheduling race); the input
// case is returned unchanged.
//
//rbpc:deterministic
func Shrink(c Case) (Case, *Violation) {
	fails := func(sched failure.Schedule, replays int) *Violation {
		cand := c
		cand.Schedule = sched
		var first *Violation
		for i := 0; i < replays; i++ {
			var v *Violation
			if _, err := cand.Run(); !errors.As(err, &v) {
				return nil
			}
			if first == nil {
				first = v
			} else if v.Kind != first.Kind || v.Step != first.Step {
				return nil // fails, but not the same way twice
			}
		}
		return first
	}

	// The input only has to fail again: a long schedule may trip its
	// oracle at a different step from run to run and still be the evidence.
	v := fails(c.Schedule, 1)
	if v == nil {
		return c, nil
	}
	// kept is every schedule accepted so far, largest first; the first
	// confirmed of them (the input counts) are known to hold.
	kept := []reduction{{c.Schedule, v}}
	for confirmed := 1; ; confirmed = len(kept) {
		kept = ddmin(kept, func(s failure.Schedule) *Violation { return fails(s, shrinkReplays) })
		found := len(kept)
		for len(kept) > confirmed && fails(kept[len(kept)-1].sched, confirmReplays) == nil {
			kept = kept[:len(kept)-1]
		}
		// Done when the search's own result held, or nothing it found did;
		// otherwise search again from the last reduction that holds.
		if len(kept) == found || len(kept) == confirmed {
			break
		}
	}
	c.Schedule = kept[len(kept)-1].sched
	return c, kept[len(kept)-1].v
}

// reduction is a schedule the search accepted and the violation it trips.
type reduction struct {
	sched failure.Schedule
	v     *Violation
}

// ddmin delta-debugs the last schedule of kept, appending every reduction
// it accepts.
func ddmin(kept []reduction, fails func(failure.Schedule) *Violation) []reduction {
	best := kept[len(kept)-1].sched
	for chunk := (len(best) + 1) / 2; chunk >= 1; {
		removed := false
		for lo := 0; lo < len(best); lo += chunk {
			hi := min(lo+chunk, len(best))
			cand := make(failure.Schedule, 0, len(best)-(hi-lo))
			cand = append(cand, best[:lo]...)
			cand = append(cand, best[hi:]...)
			if v := fails(cand); v != nil {
				best = cand
				kept = append(kept, reduction{cand, v})
				removed = true
				lo -= chunk // the window shifted left; retry this offset
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk = (chunk + 1) / 2
		}
	}
	return kept
}
