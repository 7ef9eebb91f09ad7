package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer's public entry point.
type span struct {
	name       string
	parent     int // index into recorder.spans; -1 for a root
	start, end time.Duration
	// records is the simulated records the call processed (SMT calls
	// count both threads), or 0.
	records int64
}

// recorder keeps spans in memory. A call's parent is the innermost span
// still open, so callbacks the program makes on a worker goroutine
// while the benchmark's goroutine waits (the tracestore GenFunc) nest
// under the call that caused them. A disabled recorder records nothing
// and the traced code runs unchanged, which is how the tracing overhead
// is measured.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (r *recorder) begin(name string, records int64) int {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0), records: records})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = time.Since(r.t0)
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// do runs fn inside a span.
func (r *recorder) do(name string, records int64, fn func() error) error {
	id := r.begin(name, records)
	defer r.end(id)
	return fn()
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span name up to its first dot: the package it calls.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		for j, iv := range ivs {
			if j == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.dur() - covered
	}
	return self
}

// under reports whether span i descends from (or is) span root.
func under(spans []span, i, root int) bool {
	for ; i >= 0; i = spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}
