package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hostNow is the benchmark's one read of the host clock.
func hostNow() time.Time {
	return time.Now() //marlin:allow wallclock -- host time per simulated packet is the quantity this benchmark measures
}

// span is one timed call from the benchmark into the library (or one layer
// kernel). Spans of one rep share its id; parent is an index into the
// tracer's span list, -1 at the top level.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int
	rep        int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced reps pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	rep   int
}

func newTracer() *tracer { return &tracer{epoch: hostNow()} }

// spanRef closes the span it was returned for.
type spanRef struct {
	t   *tracer
	idx int
}

func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: hostNow().Sub(t.epoch), parent: parent, rep: t.rep})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return spanRef{t, idx}
}

// beginIdx opens "name[i]"; the name is only formatted when tracing.
func (t *tracer) beginIdx(name string, i int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.begin(fmt.Sprintf("%s[%d]", name, i))
}

// end closes the span and returns its duration (0 when not tracing).
func (r spanRef) end() time.Duration {
	if r.t == nil {
		return 0
	}
	s := &r.t.spans[r.idx]
	s.end = hostNow().Sub(r.t.epoch)
	r.t.open = r.t.open[:len(r.t.open)-1]
	return s.end - s.start
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): timestamps in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders the spans as Chrome trace-event JSON, one track per rep.
func (t *tracer) write(path, workload string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.rep,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"workload": workload, "rep": s.rep, "parent": parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
