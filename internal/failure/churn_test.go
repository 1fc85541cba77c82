package failure

import (
	"math/rand"
	"testing"
	"time"

	"rbpc/internal/graph"
	"rbpc/internal/topology"
)

func TestChurnScheduleInvariants(t *testing.T) {
	g := topology.Waxman(30, 0.8, 0.5, 1)
	for _, maxDown := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(maxDown)))
		events := ChurnSchedule(g, 200, maxDown, rng)
		if len(events) < 200 {
			t.Fatalf("maxDown=%d: %d events, want >= 200", maxDown, len(events))
		}
		down := make(map[graph.EdgeID]bool)
		peak := 0
		for i, ev := range events {
			if ev.Repair {
				if !down[ev.Edge] {
					t.Fatalf("maxDown=%d event %d: repair of up link %d", maxDown, i, ev.Edge)
				}
				delete(down, ev.Edge)
			} else {
				if down[ev.Edge] {
					t.Fatalf("maxDown=%d event %d: failure of down link %d", maxDown, i, ev.Edge)
				}
				if ev.Edge < 0 || int(ev.Edge) >= g.Size() {
					t.Fatalf("maxDown=%d event %d: edge %d out of range", maxDown, i, ev.Edge)
				}
				down[ev.Edge] = true
			}
			if len(down) > peak {
				peak = len(down)
			}
		}
		if peak > maxDown {
			t.Fatalf("maxDown=%d: peak concurrent failures %d", maxDown, peak)
		}
		if maxDown > 1 && peak < 2 {
			t.Errorf("maxDown=%d: schedule never overlapped failures (peak %d)", maxDown, peak)
		}
		if len(down) != 0 {
			t.Fatalf("maxDown=%d: %d links still down after full schedule", maxDown, len(down))
		}
	}
}

func TestChurnScheduleDeterministic(t *testing.T) {
	g := topology.Waxman(20, 0.8, 0.5, 2)
	a := ChurnSchedule(g, 100, 4, rand.New(rand.NewSource(7)))
	b := ChurnSchedule(g, 100, 4, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestChurnScheduleEdgeCases(t *testing.T) {
	g := topology.Ring(5)
	if ev := ChurnSchedule(g, 0, 3, rand.New(rand.NewSource(1))); ev != nil {
		t.Fatalf("steps=0: got %d events", len(ev))
	}
	// maxDown below 1 is clamped, not a panic.
	ev := ChurnSchedule(g, 10, 0, rand.New(rand.NewSource(1)))
	down := 0
	for _, e := range ev {
		if e.Repair {
			down--
		} else {
			down++
		}
		if down > 1 {
			t.Fatalf("maxDown=0 clamp failed: %d concurrent failures", down)
		}
	}
}

// TestSchedulesTerminateWithEveryLinkDown: with maxDown above the link
// count both generators reach a state with every link down, and a failure
// drawn there used to rejection-sample an up link forever. On a 2-node,
// 1-link graph each must now return in time, never have more links down
// than exist and drain.
func TestSchedulesTerminateWithEveryLinkDown(t *testing.T) {
	g := topology.Waxman(2, 0.7, 0.4, 1)
	if g.Size() != 1 {
		t.Fatalf("Waxman(2) has %d links, want 1", g.Size())
	}
	within := func(name string, gen func() []Event) []Event {
		t.Helper()
		done := make(chan []Event, 1)
		go func() { done <- gen() }()
		select {
		case evs := <-done:
			return evs
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return with every link down", name)
			return nil
		}
	}
	check := func(name string, evs []Event, steps int) {
		t.Helper()
		if len(evs) < steps {
			t.Fatalf("%s: %d events, want >= %d", name, len(evs), steps)
		}
		down := make(map[graph.EdgeID]bool)
		for i, ev := range evs {
			if ev.Repair != down[ev.Edge] || int(ev.Edge) >= g.Size() {
				t.Fatalf("%s event %d: %+v, link down before it: %v", name, i, ev, down[ev.Edge])
			}
			if ev.Repair {
				delete(down, ev.Edge)
			} else {
				down[ev.Edge] = true
			}
			if len(down) > g.Size() {
				t.Fatalf("%s event %d: %d links down of %d", name, i, len(down), g.Size())
			}
		}
		if len(down) != 0 {
			t.Fatalf("%s: %d links still down after the schedule", name, len(down))
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		churn := within("ChurnSchedule", func() []Event {
			return ChurnSchedule(g, 40, 3, rand.New(rand.NewSource(seed)))
		})
		check("ChurnSchedule", churn, 40)
		chaos := within("ChaosSchedule", func() []Event {
			var evs []Event
			for _, st := range ChaosSchedule(g, 40, 3, rand.New(rand.NewSource(seed))) {
				if st.Kind == StepFail || st.Kind == StepRepair {
					evs = append(evs, st.Event())
				}
			}
			return evs
		})
		check("ChaosSchedule", chaos, 40)
	}
}
