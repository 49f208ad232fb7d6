package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the daemon.
// IDs are 1-based indexes into the tracer's slice; Parent 0 marks a root
// (a client operation), and Trace is the ID of that root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out only after the
// run. Spans come from the benchmark's own wrappers around the calls it
// makes into each layer: the client operation, the wrapped Handler(), and
// the wrapped predictor. A nil *tracer, or one switched off, records
// nothing.
//
// The closed loop keeps at most one client operation in flight, so the
// span a predictor call belongs to is simply the one the loop (or the
// wrapped handler) last marked active.
type tracer struct {
	on     atomic.Bool
	active atomic.Int64
	epoch  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (0 for a root) and returns its ID, or
// 0 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 && parent <= len(t.spans) {
		trace = t.spans[parent-1].Trace
	} else {
		parent = 0
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned; an ID of 0 is ignored.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setActive marks the span later predictor calls attach to.
func (t *tracer) setActive(id int) {
	if t != nil {
		t.active.Store(int64(id))
	}
}

func (t *tracer) activeSpan() int { return int(t.active.Load()) }

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans at path as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes spans by name: count and total duration, plus the
// part of each parent's time its children cover (for self time).
type spanStats struct {
	count map[string]int
	total map[string]time.Duration
	// childOf[parentName][childName] is the summed duration of children
	// named childName under parents named parentName.
	childOf map[string]map[string]time.Duration
}

func summarize(spans []span) spanStats {
	s := spanStats{
		count:   map[string]int{},
		total:   map[string]time.Duration{},
		childOf: map[string]map[string]time.Duration{},
	}
	for _, sp := range spans {
		if sp.End == 0 {
			continue
		}
		s.count[sp.Name]++
		s.total[sp.Name] += sp.dur()
		if sp.Parent > 0 {
			p := spans[sp.Parent-1].Name
			if s.childOf[p] == nil {
				s.childOf[p] = map[string]time.Duration{}
			}
			s.childOf[p][sp.Name] += sp.dur()
		}
	}
	return s
}

// mean returns the mean duration of spans named name, or 0 if none.
func (s spanStats) mean(name string) time.Duration {
	if s.count[name] == 0 {
		return 0
	}
	return s.total[name] / time.Duration(s.count[name])
}
