package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check. Recording can be paused
// (on == false) to measure the same code untraced for the overhead figure.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// record stores a finished span and returns its index (-1 when inactive).
// A child span takes its parent's request id.
func (t *tracer) record(name string, req uint64, parent int, start, end time.Time) int {
	if !t.active() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// reserve stores a span whose end is not known yet (a parent whose
// children finish first) and returns its index; finish sets the end.
func (t *tracer) reserve(name string, req uint64, parent int, start time.Time) int {
	return t.record(name, req, parent, start, start)
}

func (t *tracer) finish(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(ivs)))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sumSelf totals the self time of every span named name.
func sumSelf(self map[string][]time.Duration, name string) time.Duration {
	var d time.Duration
	for _, x := range self[name] {
		d += x
	}
	return d
}
