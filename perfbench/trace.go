package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"videoapp"
)

// span is one timed interval of the traced run. Spans of one request (or
// one pipeline chunk) share Req; Parent is the ID of the span that caused
// this one, 0 for a root. Start and End are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer is the traced run's in-memory recorder. It is also the
// videoapp.Observer the traced catalog and pipeline report to: stage spans
// arrive as (stage, wall) pairs without a request, so they are kept as
// unparented spans plus per-stage sums, and counters are summed by name.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu        sync.Mutex // guards every field below
	spans     []span
	stageWall map[string]time.Duration
	stageN    map[string]int64
	frames    map[string]int64
	counters  map[string]int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.reset()
	return t
}

// reset drops every span and aggregate, so that set-up and warm-up do
// not count towards the timed phase.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.stageWall = map[string]time.Duration{}
	t.stageN = map[string]int64{}
	t.frames = map[string]int64{}
	t.counters = map[string]int64{}
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records finished spans.
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// StageStart implements videoapp.Observer.
func (t *tracer) StageStart(string) {}

// StageEnd implements videoapp.Observer.
func (t *tracer) StageEnd(stage string, wall time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: "obs." + stage, ID: t.newID(), Start: end - int64(wall), End: end})
	t.stageWall[stage] += wall
	t.stageN[stage]++
	t.mu.Unlock()
}

// FrameDone implements videoapp.Observer.
func (t *tracer) FrameDone(stage string, frames int) {
	t.mu.Lock()
	t.frames[stage] += int64(frames)
	t.mu.Unlock()
}

// Counter implements videoapp.Observer.
func (t *tracer) Counter(name, _ string, delta int64) {
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Gauge implements videoapp.Observer.
func (t *tracer) Gauge(string, string, float64) {}

// stage returns a stage's summed wall time and span count.
func (t *tracer) stage(name string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stageWall[name], t.stageN[name]
}

// stageFrames returns the frame units a stage reported done.
func (t *tracer) stageFrames(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames[name]
}

// counter returns a counter summed over its labels.
func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// spansNamed returns the recorded spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime returns, per span ID, the span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTime() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	// Kids of one parent come from one goroutine in start order, so a
	// single sweep merges overlaps.
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// write stores every span as one JSON line under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// spanLog collects one goroutine's spans; a nil log records nothing, so
// the untraced path runs the same code. Leaf reads that happen while a
// read span is open become that span's children.
type spanLog struct {
	tr           *tracer
	spans        []span
	read         span  // the open read span, parent of leaf reads
	reads, bytes int64 // leaf reads made inside a read span
}

func (l *spanLog) start(name string, parent, req int64) span {
	if l == nil {
		return span{}
	}
	return span{Name: name, ID: l.tr.newID(), Parent: parent, Req: req, Start: l.tr.now()}
}

func (l *spanLog) end(s span) span {
	if l == nil {
		return s
	}
	s.End = l.tr.now()
	l.spans = append(l.spans, s)
	return s
}

// startRead opens the store.read_chunk span under parent.
func (l *spanLog) startRead(parent span) {
	if l != nil {
		l.read = l.start("store.read_chunk", parent.ID, parent.Req)
	}
}

// endRead closes the open read span.
func (l *spanLog) endRead() {
	if l != nil {
		l.end(l.read)
		l.read = span{}
	}
}

// timed puts a timing decorator around a storage leaf, whose reads become
// children of the open read span; a nil log returns b as it is.
func (l *spanLog) timed(b videoapp.Backend) videoapp.Backend {
	if l == nil {
		return b
	}
	return &timedBackend{Backend: b, clock: l.tr, onRead: l.onRead}
}

func (l *spanLog) onRead(start, end int64, n int) {
	if l.read.ID == 0 {
		return // open-time index reads belong to no request
	}
	l.reads++
	l.bytes += int64(n)
	l.spans = append(l.spans, span{Name: "store.backend.read", ID: l.tr.newID(), Parent: l.read.ID, Req: l.read.Req, Start: start, End: end})
}

// backendStats counts the reads a timedBackend served.
type backendStats struct {
	reads, bytes atomic.Int64
}

// timedBackend decorates a storage leaf. With stats it counts the reads
// and bytes served; with onRead it reports each read's interval, which is
// how leaf reads become children of the open read span.
type timedBackend struct {
	videoapp.Backend
	stats  *backendStats
	onRead func(start, end int64, n int)
	clock  *tracer
}

func (b *timedBackend) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := b.Backend.ReadAt(p, off)
	d := time.Since(t0)
	if b.stats != nil {
		b.stats.reads.Add(1)
		b.stats.bytes.Add(int64(n))
	}
	if b.onRead != nil {
		end := b.clock.now()
		b.onRead(end-int64(d), end, n)
	}
	return n, err
}

// timedWriter times the writes StreamToArchive makes into the archive.
type timedWriter struct {
	w            io.Writer
	bytes, nanos int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.nanos += int64(time.Since(t0))
	w.bytes += int64(n)
	return n, err
}
