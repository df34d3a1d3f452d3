package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; Parent is the index of the span that caused this
// one (-1 for a sweep, the root of every tree).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Sweep  int    `json:"sweep"`
	Job    int    `json:"job"`
	Design string `json:"design,omitempty"`
	// Count is the work the call did, in the span's own unit: delta
	// steps for run.*, 1 for a pass run that reported a change, bytes for
	// a server response.
	Count int64 `json:"count,omitempty"`
	// Allocs is the number of heap objects allocated during the span
	// (recorded for run.* spans only).
	Allocs int64 `json:"allocs,omitempty"`
}

// tracer keeps every span of one workload in memory. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured path pays
// one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is a position in the span tree: the open span new children
// attach to, and the sweep and job they belong to.
type scope struct {
	t      *tracer
	id     int
	sweep  int
	job    int
	design string
}

// child opens a span named name under s and returns its scope.
func (s scope) child(name string) scope {
	if s.t == nil {
		return s
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Name: name, Start: now, End: -1, Parent: s.id,
		Sweep: s.sweep, Job: s.job, Design: s.design})
	s.id = len(s.t.spans) - 1
	s.t.mu.Unlock()
	return s
}

// jobSpan opens a span for one job of the sweep.
func (s scope) jobSpan(job int, design string) scope {
	s.job, s.design = job, design
	return s.child("job")
}

// end closes the span, recording its work count and allocations.
func (s scope) end(count, allocs int64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.End, sp.Count, sp.Allocs = now, count, allocs
	s.t.mu.Unlock()
}

// traced reports whether spans are being recorded.
func (s scope) traced() bool { return s.t != nil }

// heapObjects returns the cumulative count of heap objects allocated by
// the process. It reads runtime/metrics, which does not stop the world.
func heapObjects() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, in nanoseconds.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), sp.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// writeSpans writes every workload's spans as JSON lines, one span per
// line, tagged with the workload that recorded it.
func writeSpans(path string, byWorkload map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		span
	}
	for _, name := range workloadNames {
		t := byWorkload[name]
		if t == nil {
			continue
		}
		for _, sp := range t.spans {
			if err := enc.Encode(line{name, sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
