// Package sim is a minimal deterministic discrete-event engine. It drives
// the timing experiments of the reproduction: link-state flooding after a
// failure, LDP signaling latency, and the local-vs-source restoration race
// that motivates the paper's hybrid scheme.
package sim

import "container/heap"

// Time is simulated time in milliseconds.
type Time float64

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Events at equal times fire in scheduling order, so runs are
// deterministic.
type Engine struct {
	now Time
	seq int64
	pq  eventHeap
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules f at absolute time t. Scheduling in the past panics: the
// engine never rewinds.
func (e *Engine) At(t Time, f func()) {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	heap.Push(&e.pq, event{at: t, seq: e.seq, do: f})
}

// After schedules f at Now() + d.
func (e *Engine) After(d Time, f func()) { e.At(e.now+d, f) }

// Step fires the next event. It reports false if none are pending.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	ev.do()
	return true
}

// Run fires events until none remain, returning how many fired.
func (e *Engine) Run() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// RunUntil fires events with time <= t, advances the clock to t, and
// returns how many fired.
func (e *Engine) RunUntil(t Time) int {
	n := 0
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
		n++
	}
	if t > e.now {
		e.now = t
	}
	return n
}

type event struct {
	at  Time
	seq int64
	do  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
