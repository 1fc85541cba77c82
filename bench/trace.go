package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// churn event or one query batch share Req; Parent is the index (+1) of
// the enclosing span in the tracer's list, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since tracer start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.sp = append(t.sp, span{Name: name, Start: now, Parent: parent, Req: req, ID: len(t.sp) + 1})
	id := len(t.sp)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.sp[id-1].End = now
	t.mu.Unlock()
}

// mark returns the number of spans begun so far: spans begun later have
// a higher id.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sp)
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.sp...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (children may overlap each
// other; the union is subtracted once).
func selfTimes(sp []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range sp {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(sp))
	for i, s := range sp {
		dur := s.End - s.Start
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		var covered, hi int64 = 0, s.Start
		for _, c := range ch {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = dur - covered
	}
	return self
}

// durations collects the durations (ns) of every finished span of a name.
func durations(sp []span, name string) samples {
	var out samples
	for _, s := range sp {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out.add(float64(s.End - s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
