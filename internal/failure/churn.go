package failure

import (
	"math/rand"

	"rbpc/internal/graph"
)

// Event is one step of a churn sequence: a single link goes down or comes
// back up. Churn is the input stream of the online restoration engine
// (internal/engine), which applies each burst of events as one transition.
type Event struct {
	// Repair is false for a failure, true for a repair.
	Repair bool
	Edge   graph.EdgeID
}

// ChurnSchedule generates a reproducible sequence of steps fail/repair
// events over g's links such that at every prefix of the sequence:
//
//   - at most maxDown links are down at once,
//   - no link fails while already down, and no link is repaired while up.
//
// Failures and repairs are interleaved at random, biased so the number of
// concurrently-down links random-walks below maxDown rather than pinning
// to it; a failure drawn while every link is down repairs one instead. The
// schedule ends with repairs for every link still down, so a consumer that
// applies the whole schedule lands back on the pristine network; the
// returned slice therefore has length >= steps (steps chosen events plus
// the final drain).
//
//rbpc:deterministic
func ChurnSchedule(g *graph.Graph, steps, maxDown int, rng *rand.Rand) []Event {
	if maxDown < 1 {
		maxDown = 1
	}
	m := g.Size()
	if m == 0 || steps <= 0 {
		return nil
	}

	events := make([]Event, 0, steps+maxDown)
	down := make([]graph.EdgeID, 0, maxDown) // links currently down
	isDown := make(map[graph.EdgeID]bool, maxDown)

	for len(events) < steps {
		// Repair with probability proportional to how full the down-set is,
		// so the walk hovers in the middle of [0, maxDown].
		repair := len(down) > 0 &&
			(len(down) >= maxDown || rng.Intn(maxDown+1) < len(down))
		// With every link down there is none left to fail (maxDown > m).
		if repair || len(down) == m {
			i := rng.Intn(len(down))
			e := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			delete(isDown, e)
			events = append(events, Event{Repair: true, Edge: e})
			continue
		}
		// Pick an up link to fail. Rejection-sample; with maxDown << m this
		// terminates quickly.
		var e graph.EdgeID
		for {
			e = graph.EdgeID(rng.Intn(m))
			if !isDown[e] {
				break
			}
		}
		down = append(down, e)
		isDown[e] = true
		events = append(events, Event{Repair: false, Edge: e})
	}

	// Drain: repair everything still down, in random order.
	rng.Shuffle(len(down), func(i, j int) { down[i], down[j] = down[j], down[i] })
	for _, e := range down {
		events = append(events, Event{Repair: true, Edge: e})
	}
	return events
}
