package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the traced in-process
// replay around the call it makes into that layer's public functions.
// Spans of one request share Req; Parent is the index of the span that
// caused this one, or -1 for a request's root.
//
// Of marks a decomposed call: the replay cannot open spans inside the
// HTTP handler, so right after a request it makes the same layer calls the
// handler made (BuiltinDomain, CacheKey, Result.Translate) directly, with
// the same inputs, and records each with Of set to the handler's span. A
// span's self time subtracts the durations of the calls decomposed out of
// it as well as the interval its children cover. -1: not decomposed.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Of     int           `json:"of"`
	Req    int64         `json:"req"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// keeps nothing and reads no clock, so the same replay run once with spans
// and once without measures the tracing overhead.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	req   int64
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now()}
}

// request starts a new request identifier; spans begun until the next
// call belong to it.
func (r *recorder) request() { r.req++ }

// begin opens a span and returns its handle (-1 when disabled).
func (r *recorder) begin(name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Of: -1, Req: r.req})
	return len(r.spans) - 1
}

// beginOf opens a span for a call decomposed out of span of.
func (r *recorder) beginOf(name string, of int) int {
	id := r.begin(name, -1)
	if id >= 0 {
		r.spans[id].Of = of
	}
	return id
}

// end closes the span begun with handle id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// child records a span that already finished: the pipeline's stage
// observer reports a stage's duration when it completes, so the span
// starts that long before now.
func (r *recorder) child(name string, parent int, d time.Duration) {
	if !r.on {
		return
	}
	now := time.Since(r.epoch)
	r.spans = append(r.spans, span{Name: name, Start: now - d, End: now, Parent: parent, Of: -1, Req: r.req})
}

// layerOf is the layer a span name belongs to: the part before the first
// dot ("qilabel.integrate" → "qilabel").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums every span's self time per layer: its duration minus
// the union of its children's intervals and minus the calls decomposed
// out of it.
func selfByLayer(spans []span) map[string]time.Duration {
	children := make([][]interval, len(spans))
	decomposed := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		if s.Of >= 0 {
			decomposed[s.Of] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[layerOf(s.Name)] += selfTime(interval{s.Start, s.End}, children[i]) - decomposed[i]
	}
	return out
}

// durations returns the durations of every span with the given name, in
// recording order.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write saves the spans and the per-layer self times as one JSON file.
func (r *recorder) write(path string) error {
	self := selfByLayer(r.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	selfUs := make(map[string]float64, len(self))
	for _, l := range layers {
		selfUs[l] = us(self[l])
	}
	data, err := json.Marshal(struct {
		SelfUs map[string]float64 `json:"self_us"`
		Spans  []span             `json:"spans"`
	}{selfUs, r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
