package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by benchmark
// code around the call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds a traced run's spans in memory until the run ends. A nil
// *tracer is the untraced run: starting a span on it records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// start opens a span under parent (0 for a root). On a nil tracer the
// returned span has id 0 and ending it does nothing.
func (t *tracer) start(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span with the given attributes.
func (s openSpan) end(attrs map[string]any) {
	if s.t == nil {
		return
	}
	sp := span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(),
		End:   time.Since(s.t.epoch).Nanoseconds(),
		Attrs: attrs,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of its interval that its children
// cover. Children may run in parallel, so coverage is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// selfShares returns each span name's share of the self time of the spans
// under "workload" roots, the measured phases: how the phases' wall time
// divides between the layers. The shares add up to 1.
func selfShares(spans []span) map[string]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var measured []span
	for _, s := range spans {
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		if root.Name == "workload" {
			measured = append(measured, s)
		}
	}
	self := selfTimes(measured)
	var total int64
	for _, ns := range self {
		total += ns
	}
	out := make(map[string]float64, len(self))
	for name, ns := range self {
		out[name] = float64(ns) / float64(total)
	}
	return out
}

// covered returns the length of the union of the intervals of spans,
// clipped to [lo, hi).
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		a := max(x[0], end)
		if x[1] > a {
			total += x[1] - a
			end = x[1]
		}
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
