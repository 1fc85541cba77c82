package chaos

import (
	"errors"

	"rbpc/internal/failure"
)

// Shrink minimizes a failing case's schedule by delta debugging (ddmin):
// it repeatedly tries removing contiguous chunks of steps, keeping any
// candidate that still trips an oracle, halving the chunk size until single
// steps no longer come out. Subsets are always valid schedules because the
// engine absorbs redundant events (failing a down link or repairing an up
// link is a no-op), matching the reference model's map semantics.
//
// It shrinks the case's serial form (serial), whose every run of churn
// steps is followed by a flush, because that form replays
// deterministically. Case.Run hands each run to the engines as one burst,
// one transition; but in the form a case is generated in, two runs parted
// by a racing query reach the writer with no barrier between them, and the
// query reads whichever epoch is published when it lands, so whether the
// writer takes the two bursts in one transition or two, and which epoch a
// query sees, depend on goroutine timing — a defect in how one transition
// builds on the last (FaultSkipRepairRescan) shows at one step in one run,
// at another or not at all in the next. In the serial form every burst is
// its own transition, published before the next step runs, so one run of a
// candidate decides it and the shrunk case fails at the same step every
// time, keeping its multi-link transitions.
//
// Shrink returns the smallest failing case found and its violation. A nil
// violation means the serial form of the input does not fail — the
// violation needs the writer's timing — and the input case is returned
// unchanged.
//
//rbpc:deterministic
func Shrink(c Case) (Case, *Violation) {
	fails := func(sched failure.Schedule) *Violation {
		cand := c
		cand.Schedule = sched
		var v *Violation
		if _, err := cand.Run(); errors.As(err, &v) {
			return v
		}
		return nil
	}
	best := serial(c.Schedule)
	v := fails(best)
	if v == nil {
		return c, nil
	}
	for chunk := (len(best) + 1) / 2; chunk >= 1; {
		removed := false
		for lo := 0; lo < len(best); lo += chunk {
			hi := min(lo+chunk, len(best))
			cand := serial(append(best[:lo:lo], best[hi:]...))
			if len(cand) == len(best) {
				continue // only a flush came out, and serial put it back
			}
			if cv := fails(cand); cv != nil {
				best, v, removed = cand, cv, true
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
	c.Schedule = best
	return c, v
}

// serial returns sched with a flush after every run of churn steps that is
// not already followed by a barrier (a flush or a settle).
func serial(sched failure.Schedule) failure.Schedule {
	out := make(failure.Schedule, 0, 2*len(sched))
	for i, st := range sched {
		out = append(out, st)
		if !st.IsChurn() || i+1 < len(sched) && sched[i+1].IsChurn() {
			continue // not the end of a run
		}
		barrier := i+1 < len(sched) && (sched[i+1].Kind == failure.StepFlush || sched[i+1].Kind == failure.StepSettle)
		if !barrier {
			out = append(out, failure.Step{Kind: failure.StepFlush})
		}
	}
	return out
}
