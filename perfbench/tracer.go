package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// tracer records one span around every call the benchmark makes into a
// layer of the system. Spans stay in memory until write. A nil tracer, or
// one whose on flag is false, records nothing, so the untraced run pays one
// branch per call.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

// span is one timed call. Parent indexes the enclosing span (-1 for a root);
// Op groups the spans of one benchmark operation (-1 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	// Alloc is the heap bytes allocated process-wide while the span was open.
	Alloc uint64 `json:"alloc_bytes"`

	alloc0 uint64
}

const noSpan int32 = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on }

// begin opens a span and returns its handle (noSpan when not recording).
func (t *tracer) begin(name string, op, parent int32) int32 {
	if !t.enabled() {
		return noSpan
	}
	a := heapAllocs()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, alloc0: a})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	a := heapAllocs()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	s.Alloc = a - s.alloc0
	t.mu.Unlock()
}

// add records an already-timed span (start and end as wall-clock times).
func (t *tracer) add(name string, op, parent int32, start, end time.Time) int32 {
	if !t.enabled() {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return id
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count  int
	SelfNS int64
	Alloc  uint64
}

// selfMS is the mean self time per span in milliseconds.
func (l *layerStat) selfMS() float64 {
	if l == nil || l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count) / 1e6
}

// allocKB is the mean allocation per span in KiB.
func (l *layerStat) allocKB() float64 {
	if l == nil || l.Count == 0 {
		return 0
	}
	return float64(l.Alloc) / float64(l.Count) / 1024
}

// layers computes each span's self time — its duration minus the time its
// direct children cover — and aggregates by span name.
func (t *tracer) layers() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noSpan && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.Count++
		l.SelfNS += s.End - s.Start - child[i]
		l.Alloc += s.Alloc
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
