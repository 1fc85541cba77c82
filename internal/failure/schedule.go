package failure

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"rbpc/internal/graph"
)

// StepKind enumerates the operations of a chaos schedule — the input
// language of the fault-injection conformance harness (internal/chaos).
// Where Event is the engine's raw churn stream, a Step also carries the
// observation points (queries) and synchronization points (flushes) that
// make a failing run reproducible and shrinkable.
type StepKind int

const (
	// StepFail takes Edge down.
	StepFail StepKind = iota + 1
	// StepRepair brings Edge back up.
	StepRepair
	// StepQuery asks the engine for the pair (Src, Dst) and checks the
	// answer against the harness oracles.
	StepQuery
	// StepFlush blocks until every prior event is reflected in the
	// published snapshot, then checks the snapshot agrees with the
	// reference model.
	StepFlush
	// StepSettle waits (in real time) until the published snapshot's
	// restoration state is time-invariant — under the engine's hybrid
	// scheme, until every reachable router's flood horizon has passed and
	// the sources serve their final answers. A no-op for the other
	// schemes, whose snapshots never change after publish.
	StepSettle
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepFail:
		return "fail"
	case StepRepair:
		return "repair"
	case StepQuery:
		return "query"
	case StepFlush:
		return "flush"
	case StepSettle:
		return "settle"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one operation of a chaos schedule.
type Step struct {
	Kind StepKind
	// Edge is the operand of StepFail/StepRepair.
	Edge graph.EdgeID
	// Src, Dst are the operands of StepQuery.
	Src, Dst graph.NodeID
}

// Event converts a churn step to the engine's event type. It panics on
// query/flush steps, which have no event equivalent.
func (s Step) Event() Event {
	switch s.Kind {
	case StepFail:
		return Event{Edge: s.Edge}
	case StepRepair:
		return Event{Repair: true, Edge: s.Edge}
	default:
		panic(fmt.Sprintf("failure: Step %v has no Event form", s.Kind))
	}
}

// Schedule is an ordered chaos schedule. The zero value is empty.
type Schedule []Step

// Churn counts the fail/repair steps.
func (s Schedule) Churn() int {
	n := 0
	for _, st := range s {
		if st.Kind == StepFail || st.Kind == StepRepair {
			n++
		}
	}
	return n
}

// Queries counts the query steps.
func (s Schedule) Queries() int {
	n := 0
	for _, st := range s {
		if st.Kind == StepQuery {
			n++
		}
	}
	return n
}

// Encode writes the schedule in its line-oriented text form, one step per
// line: "fail <edge>", "repair <edge>", "query <src> <dst>", "flush".
// The format is the corpus format replayed by cmd/rbpc-chaos; encoding
// must be byte-stable so corpus files diff cleanly across runs.
//
//rbpc:deterministic
func (s Schedule) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, st := range s {
		var err error
		switch st.Kind {
		case StepFail, StepRepair:
			_, err = fmt.Fprintf(bw, "%s %d\n", st.Kind, st.Edge)
		case StepQuery:
			_, err = fmt.Fprintf(bw, "query %d %d\n", st.Src, st.Dst)
		case StepFlush:
			_, err = fmt.Fprintln(bw, "flush")
		case StepSettle:
			_, err = fmt.Fprintln(bw, "settle")
		default:
			err = fmt.Errorf("failure: encoding unknown step kind %v", st.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String renders the schedule as its Encode form.
func (s Schedule) String() string {
	var b strings.Builder
	_ = s.Encode(&b)
	return b.String()
}

// DecodeSchedule parses the Encode format. Blank lines and '#' comments
// are ignored.
//
//rbpc:deterministic
func DecodeSchedule(r io.Reader) (Schedule, error) {
	sc := bufio.NewScanner(r)
	var s Schedule
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		atoi := func(i int) (int, error) {
			if i >= len(fields) {
				return 0, fmt.Errorf("missing operand")
			}
			return strconv.Atoi(fields[i])
		}
		var st Step
		var err error
		switch fields[0] {
		case "fail", "repair":
			if len(fields) != 2 {
				return nil, fmt.Errorf("failure: line %d: %s takes one edge operand", lineNo, fields[0])
			}
			var e int
			e, err = atoi(1)
			st = Step{Kind: StepFail, Edge: graph.EdgeID(e)}
			if fields[0] == "repair" {
				st.Kind = StepRepair
			}
		case "query":
			if len(fields) != 3 {
				return nil, fmt.Errorf("failure: line %d: query takes src and dst", lineNo)
			}
			var a, b int
			a, err = atoi(1)
			if err == nil {
				b, err = atoi(2)
			}
			st = Step{Kind: StepQuery, Src: graph.NodeID(a), Dst: graph.NodeID(b)}
		case "flush":
			if len(fields) != 1 {
				return nil, fmt.Errorf("failure: line %d: flush takes no operands", lineNo)
			}
			st = Step{Kind: StepFlush}
		case "settle":
			if len(fields) != 1 {
				return nil, fmt.Errorf("failure: line %d: settle takes no operands", lineNo)
			}
			st = Step{Kind: StepSettle}
		default:
			return nil, fmt.Errorf("failure: line %d: unknown step %q", lineNo, fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("failure: line %d: %v", lineNo, err)
		}
		s = append(s, st)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("failure: %w", err)
	}
	return s, nil
}

// ChaosSchedule generates a reproducible chaos schedule over g's links:
// the fail/repair walk of ChurnSchedule (at most maxDown links down at any
// prefix, no double-fail/double-repair), interleaved with query steps on
// random connected-candidate pairs and periodic flush barriers, each flush
// followed by a burst of queries so that every epoch transition is
// deterministically observed. The schedule ends with a drain back to the
// pristine network, a final flush, and a final query burst.
//
// steps counts the churn events; the returned schedule is longer (queries,
// flushes, drain). Same (g, steps, maxDown, rng seed) -> identical
// schedule.
//
//rbpc:deterministic
func ChaosSchedule(g *graph.Graph, steps, maxDown int, rng *rand.Rand) Schedule {
	if maxDown < 1 {
		maxDown = 1
	}
	m := g.Size()
	n := g.Order()
	if m == 0 || n < 2 || steps <= 0 {
		return nil
	}

	sched := make(Schedule, 0, 4*steps)
	down := make([]graph.EdgeID, 0, maxDown)
	isDown := make(map[graph.EdgeID]bool, maxDown)

	query := func() Step {
		for {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			if s != d {
				return Step{Kind: StepQuery, Src: s, Dst: d}
			}
		}
	}
	queryBurst := func(k int) {
		for i := 0; i < k; i++ {
			sched = append(sched, query())
		}
	}

	churn := 0
	for churn < steps {
		repair := len(down) > 0 &&
			(len(down) >= maxDown || rng.Intn(maxDown+1) < len(down))
		// With every link down there is none left to fail (maxDown > m).
		if repair || len(down) == m {
			i := rng.Intn(len(down))
			e := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			delete(isDown, e)
			sched = append(sched, Step{Kind: StepRepair, Edge: e})
		} else {
			var e graph.EdgeID
			for {
				e = graph.EdgeID(rng.Intn(m))
				if !isDown[e] {
					break
				}
			}
			down = append(down, e)
			isDown[e] = true
			sched = append(sched, Step{Kind: StepFail, Edge: e})
		}
		churn++

		// Racing queries: land while the writer may still be rebuilding.
		if rng.Intn(2) == 0 {
			queryBurst(1 + rng.Intn(2))
		}
		// Synchronization point: flush, then observe deterministically.
		if rng.Intn(3) == 0 {
			sched = append(sched, Step{Kind: StepFlush})
			queryBurst(2 + rng.Intn(3))
		}
	}

	// Drain to pristine so every run covers the full repair direction.
	rng.Shuffle(len(down), func(i, j int) { down[i], down[j] = down[j], down[i] })
	for _, e := range down {
		sched = append(sched, Step{Kind: StepRepair, Edge: e})
	}
	sched = append(sched, Step{Kind: StepFlush})
	queryBurst(4)
	return sched
}
