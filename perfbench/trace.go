package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Start and End are nanoseconds
// since the tracer's epoch. Width is the number of goroutine lanes the
// span occupies: 1 for a call, the pool size for a trial pool, whose
// children each occupy one of its lanes.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Width  int32  `json:"width,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noSpan is the parent of a root span and what a nil tracer hands out.
const noSpan = int32(-1)

// setupJob marks spans recorded during set-up; they give per-call
// numbers (graph.build_ms on solve-rmat) but stay out of the time
// accounting, which covers the timed region only.
const setupJob = int32(-1)

// tracer keeps every span in memory until the run ends. A nil *tracer
// is the untraced configuration: every method is a no-op, so the timed
// code paths are shared between the two modes.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job int32) int32 {
	return t.beginWidth(name, parent, job, 1)
}

func (t *tracer) beginWidth(name string, parent, job int32, width int) int32 {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, Width: int32(width)})
	return id
}

// end closes the span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (an HTTP
// trace hook, a server-side timestamp) and returns its id.
func (t *tracer) add(name string, parent, job int32, start, end time.Time) int32 {
	if t == nil {
		return noSpan
	}
	end = later(end, start)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Width: 1,
	})
	return id
}

// layers are the program's layers, named after their packages. A span
// belongs to the layer its name is prefixed with; spans of no layer
// (the per-operation roots, per-trial wrappers) are the benchmark's own
// bookkeeping and count as unattributed.
var layers = []string{"load", "service", "scenario", "experiment", "graph", "sim", "fault"}

func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	for _, l := range layers {
		if l == layer {
			return l
		}
	}
	return ""
}

// accounting is the self-time split of a traced run.
type accounting struct {
	// totalNs is the lane time the spans account for: every root's
	// duration, plus (width-1) × duration for each multi-lane span.
	totalNs int64
	// selfNs maps a layer to its spans' summed self time.
	selfNs map[string]int64
	// unattributedNs is the self time of spans of no layer.
	unattributedNs int64
	// byName sums duration and counts calls per span name.
	byName map[string]nameStat
}

type nameStat struct {
	count int
	ns    int64
	// laneNs sums duration × width.
	laneNs int64
}

func (s nameStat) meanMs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.count) / 1e6
}

// account computes self times: a span's self time is its lane time
// (duration × width) minus its children's durations. Children of one
// span never overlap on a lane — calls nest, and a pool runs at most
// width trials at once — so the self times of a tree sum to its root's
// lane time, and the layers plus unattributed sum to totalNs.
func (t *tracer) account() accounting { return t.accountJobs(nil) }

// accountJobs is account restricted to the spans of the jobs include
// accepts; nil includes every job.
func (t *tracer) accountJobs(include func(job int32) bool) accounting {
	a := accounting{selfNs: map[string]int64{}, byName: map[string]nameStat{}}
	if t == nil {
		return a
	}
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		st := a.byName[s.Name]
		st.count++
		st.ns += s.dur()
		st.laneNs += s.dur() * int64(max(s.Width, 1))
		a.byName[s.Name] = st
		if s.Job != setupJob && s.Parent != noSpan {
			childNs[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Job == setupJob || include != nil && !include(s.Job) {
			continue
		}
		width := int64(max(s.Width, 1))
		if s.Parent == noSpan {
			a.totalNs += s.dur()
		}
		a.totalNs += (width - 1) * s.dur()
		self := s.dur()*width - childNs[s.ID]
		if layer := layerOf(s.Name); layer != "" {
			a.selfNs[layer] += self
		} else {
			a.unattributedNs += self
		}
	}
	return a
}

func (a accounting) share(ns int64) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(ns) / float64(a.totalNs)
}

// shares maps each layer with self time, and "unattributed", to its
// share of the accounted time.
func (a accounting) shares() map[string]float64 {
	out := map[string]float64{"unattributed": a.share(a.unattributedNs)}
	for layer, ns := range a.selfNs {
		out[layer] = a.share(ns)
	}
	return out
}

// writeSpans writes the run's spans as JSON lines to
// dir/<workload>-seed<seed>.jsonl.
func (t *tracer) writeSpans(dir, workload string, seed uint64) (string, error) {
	if t == nil || dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, f.Close()
}
