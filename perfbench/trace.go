package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer. Disabled (the default) it records nothing and a span costs one
// atomic load. A span's layer is its name up to the first dot.
type tracer struct {
	on   atomic.Bool
	next atomic.Int64
	t0   time.Time

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are nanoseconds since the tracer
// was enabled; Parent is 0 for a root span.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"request_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; the zero value (tracing off) ignores end.
type span struct {
	tr    *tracer
	id    int64
	rec   spanRec
	start time.Time
}

func (t *tracer) enable() {
	t.mu.Lock()
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) disable() { t.on.Store(false) }

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// start opens a span under parent (0: a root span).
func (t *tracer) start(name string, parent int64, reqID string) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	id := t.next.Add(1)
	return span{tr: t, id: id, start: time.Now(),
		rec: spanRec{ID: id, Parent: parent, Name: name, ReqID: reqID}}
}

// child opens a span under s sharing its request ID.
func (s span) child(name string) span {
	if s.tr == nil {
		return span{}
	}
	return s.tr.start(name, s.id, s.rec.ReqID)
}

func (s span) end() {
	if s.tr == nil {
		return
	}
	end := time.Now()
	s.rec.Start = int64(s.start.Sub(s.tr.t0))
	s.rec.End = int64(end.Sub(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
}

// layerSelf is the summed self time of one layer's spans.
type layerSelf struct {
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of it its child spans cover.
func selfTimes(spans []spanRec) map[string]layerSelf {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerSelf{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		ls := out[layer]
		ls.Spans++
		ls.SelfMS += float64(s.End-s.Start-covered) / 1e6
		out[layer] = ls
	}
	return out
}

// write saves the spans and the per-layer self times as JSON under
// cfg.traceDir and prints the self times to log.
func (t *tracer) write(cfg config, log io.Writer) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	fmt.Fprintln(log, "layer self time (traced half):")
	for _, k := range layers {
		fmt.Fprintf(log, "  %-12s %8d spans %12.3f ms\n", k, self[k].Spans, self[k].SelfMS)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Self     map[string]layerSelf `json:"self"`
		Spans    []spanRec            `json:"spans"`
	}{cfg.workload, cfg.seed, self, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(log, "spans written to", path)
	return nil
}
