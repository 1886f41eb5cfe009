package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call the benchmark made into a layer: name, start,
// end and the span that caused it. Spans of one replayed request share
// Trace.
type Span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run writes them out. A
// disabled tracer records nothing; Begin and End then cost one branch.
type Tracer struct {
	on    bool
	t0    time.Time
	spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, t0: time.Now()} }

// Begin opens a span and returns its index, -1 when tracing is off.
func (t *Tracer) Begin(name string, trace, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *Tracer) End(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// durations lists the durations of every span with the given name, in
// microseconds.
func (t *Tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.Dur()))
		}
	}
	return out
}

func (t *Tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the
// durations of its children. The replay times each layer in its own
// call on the same request, so a child is measured apart from its
// parent and its duration, not its interval, is what the parent's
// time contains.
func selfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// selfDurations lists, in microseconds, the self time of every span
// with the given name.
func (t *Tracer) selfDurations(name string) []float64 {
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, us(self[i]))
		}
	}
	return out
}
