package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a benchmark call into a layer. Spans
// of one op share Op; Parent is the enclosing span (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is the current span carried in a context.
type spanRef struct{ op, id int64 }

type spanKey struct{}

// op opens the root span of one op.
func (t *tracer) op(ctx context.Context, id int64) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	return t.open(ctx, spanRef{op: id}, "op")
}

// start opens a child span of the context's current span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	return t.open(ctx, parent, name)
}

func (t *tracer) open(ctx context.Context, parent spanRef, name string) (context.Context, func()) {
	s := span{ID: t.next.Add(1), Parent: parent.id, Op: parent.op, Name: name, Start: int64(time.Since(t.t0))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{op: parent.op, id: s.ID})
	return ctx, func() {
		s.End = int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// Headers that carry the caller's span across the loopback connection, so
// the server-side span nests under the client-side one.
const (
	hdrOp   = "X-Simbench-Op"
	hdrSpan = "X-Simbench-Span"
)

// spanTransport stamps the context's current span onto outgoing requests.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrOp, strconv.FormatInt(ref.op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler wraps next in a server span, parented by the span the
// request's headers carry: "server.events" for a job's SSE stream (it
// lasts until the job ends), "server.handler" otherwise. tr is loaded per
// request so tracing can be switched on after set-up.
func tracedHandler(tr *atomic.Pointer[tracer], next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil || r.Header.Get(hdrSpan) == "" {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		name := "server.handler"
		if strings.HasSuffix(r.URL.Path, "/events") {
			name = "server.events"
		}
		_, end := t.open(r.Context(), spanRef{op: op, id: parent}, name)
		next.ServeHTTP(w, r)
		end()
	})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the part before the first dot
// ("charexp.fig3" → "charexp"); an op's root span is the benchmark's own.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's total self time: every span's duration
// minus the part of it that its children's intervals cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanDurations returns the durations of every span with the given name,
// in milliseconds.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
