package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one job share Job; Parent is the causing span's ID
// (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's module prefix: "store.put" is in "store".
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a job's root span.
func (t *tracer) root(name, job string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Job: job, Start: time.Since(t.t0)})
	return len(t.spans)
}

// start opens a child span of parent; its job is the parent's.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	job := ""
	if parent > 0 {
		job = t.spans[parent-1].Job
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.dur()
}

// timed runs fn inside a child span of parent and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	fn()
	return t.end(id)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfTimes sums each layer's self time: every span's duration minus the
// part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := s.Start, s.Start
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > hi {
			total += hi - lo
			lo = a
		}
		hi = max(hi, b)
	}
	return total + hi - lo
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
