package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Layer spans are children of the
// operation span ("bench.op") of the request, sweep or run they serve.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list, -1 for an operation
	Req    int64         `json:"req"`
	// AllocB is the heap allocated during the call (runtime.MemStats
	// TotalAlloc delta).
	AllocB uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced replay runs the same calls without the bookkeeping. The
// replays that use it run on one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, AllocB: t.ms.TotalAlloc, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := time.Since(t.t0)
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.End = end
	s.AllocB = t.ms.TotalAlloc - s.AllocB
}

// record adds a span of the given duration ending now, for a call timed
// by the caller.
func (t *tracer) record(name string, parent int, req int64, took time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: end - took, End: end})
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, req int64, fn func()) {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
}

func (s *span) dur() time.Duration { return s.End - s.Start }

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// medianMs is the median duration of the spans named name, in ms.
func (t *tracer) medianMs(name string) float64 {
	var v []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			v = append(v, ms(t.spans[i].dur()))
		}
	}
	return median(v)
}

// count is the number of spans named name.
func (t *tracer) count(name string) int {
	n := 0
	for i := range t.spans {
		if t.spans[i].Name == name {
			n++
		}
	}
	return n
}

// allocMB is the heap allocated inside the spans of one layer, in MB
// per operation.
func (t *tracer) allocMB(layer string) float64 {
	var b uint64
	for i := range t.spans {
		if t.spans[i].Parent >= 0 && layerOf(t.spans[i].Name) == layer {
			b += t.spans[i].AllocB
		}
	}
	return float64(b) / 1e6 / float64(max(1, t.ops()))
}

func (t *tracer) ops() int { return t.count("bench.op") }

// layerSummary reports, per layer, its self time (span time not covered
// by child spans) and span count, both per operation, and the share of
// operation time no layer span covers.
func (t *tracer) layerSummary(m metrics) {
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	var opTime, uncovered time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			opTime += s.dur()
			uncovered += s.dur() - child[i]
			continue
		}
		self[layerOf(s.Name)] += s.dur() - child[i]
		count[layerOf(s.Name)]++
	}
	ops := float64(max(1, t.ops()))
	for _, l := range tracedLayers {
		m.set(l+".self_ms", "ms", ms(self[l])/ops)
		m.set(l+".spans", "count", float64(count[l])/ops)
	}
	ratio := 0.0
	if opTime > 0 {
		ratio = float64(uncovered) / float64(opTime)
	}
	m.set("tracing.uncovered_ratio", "ratio", ratio)
	m.set("tracing.spans", "count", float64(len(t.spans)))
}

// tracedLayers are the layers the benchmark wraps in spans.
var tracedLayers = []string{"hierclust", "topology", "tsunami", "trace", "graph", "core",
	"reliability", "diskstore", "checkpoint", "hybrid"}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metrics collects the named values a run prints.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) String() string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return b.String()
}
