package main

import (
	"sort"
	"time"
)

// Span is one timed call into a layer during the in-process replay.
type Span struct {
	Name   string
	Req    int // request the span belongs to
	Parent int // index of the enclosing span, -1 at the top
	Dur    time.Duration
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced replay pays only a nil check per call.
type Tracer struct {
	spans []Span
	class map[int]Class
	req   int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{class: map[int]Class{}} }

// Begin starts the spans of a new request of class c.
func (t *Tracer) Begin(c Class) {
	if t == nil {
		return
	}
	t.req++
	t.class[t.req] = c
}

// Time runs fn inside a span named name under parent (-1 for none) and
// returns the span's index, for children attributed to it.
func (t *Tracer) Time(name string, parent int, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	start := time.Now()
	fn()
	t.spans = append(t.spans, Span{Name: name, Req: t.req, Parent: parent, Dur: time.Since(start)})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the durations of the spans
// attributed to it as children.
func (t *Tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// Durations returns the durations of every span named name, in ms.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.Dur))
		}
	}
	return out
}

// SelfSums returns, per request of class c, the summed self time of its
// spans in ms: the time the replay spent inside the layers.
func (t *Tracer) SelfSums(c Class) []float64 {
	self := t.selfTimes()
	sums := map[int]float64{}
	for i, s := range t.spans {
		if t.class[s.Req] == c {
			sums[s.Req] += ms(self[i])
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// SelfByName returns the median self time in ms of every span name used
// by requests of class c.
func (t *Tracer) SelfByName(c Class) map[string]float64 {
	self := t.selfTimes()
	by := map[string][]float64{}
	for i, s := range t.spans {
		if t.class[s.Req] == c {
			by[s.Name] = append(by[s.Name], ms(self[i]))
		}
	}
	out := make(map[string]float64, len(by))
	for name, xs := range by {
		out[name] = Median(xs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
