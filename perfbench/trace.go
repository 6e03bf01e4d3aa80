package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can wrap from outside
// the program.
const (
	spanClient = "client" // benchmark client → first hop (client transport)
	spanFleet  = "fleet"  // router Handler()
	spanSubreq = "subreq" // router → shard (router transport)
	spanServer = "server" // shard Handler()
)

// Request headers that carry the trace context across the loopback hops.
const (
	hdrReq  = "Perfbench-Req"
	hdrSpan = "Perfbench-Span"
)

// span is one timed call into a layer. Spans of one client request share
// Req; Parent is the span that caused this one.
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      time.Time
	Status          int   // HTTP status, 0 on transport error
	ReqBytes        int64 // transport spans only
	RespBytes       int64
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory while enabled; nothing is recorded while it
// is off, so one stack can serve an untraced and a traced phase.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a new buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

type ctxKey struct{}

// traceCtx is the trace context a wrapped handler hands to the outbound
// calls it causes.
type traceCtx struct{ req, span uint64 }

func headerID(r *http.Request, h string) uint64 {
	v, _ := strconv.ParseUint(r.Header.Get(h), 10, 64)
	return v
}

// wrapHandler records a span named name around every request h serves that
// carries a request id. Untraced stacks (t == nil) get h itself.
func wrapHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := headerID(r, hdrReq)
		if !t.enabled() || req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.ids.Add(1), Parent: headerID(r, hdrSpan), Req: req, Name: name}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, traceCtx{req: req, span: s.ID}))
		s.Start = time.Now()
		h.ServeHTTP(sw, r)
		s.End = time.Now()
		s.Status = sw.status
		t.record(s)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// transport records a span around every round trip, from the request until
// its response body is drained or closed. A root transport (the benchmark
// client's) starts a new request id per round trip; an inner one (the
// router's) propagates the id of the handler that caused the call and
// leaves unrelated calls (gossip) untraced.
type transport struct {
	t    *tracer
	name string
	root bool
	base http.RoundTripper
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tr.t.enabled() {
		return tr.base.RoundTrip(r)
	}
	tc, _ := r.Context().Value(ctxKey{}).(traceCtx)
	if tc.req == 0 {
		if !tr.root {
			return tr.base.RoundTrip(r)
		}
		tc.req = tr.t.ids.Add(1)
	}
	s := span{ID: tr.t.ids.Add(1), Parent: tc.span, Req: tc.req, Name: tr.name, ReqBytes: r.ContentLength}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatUint(s.Req, 10))
	r.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
	s.Start = time.Now()
	resp, err := tr.base.RoundTrip(r)
	if err != nil {
		s.End = time.Now()
		tr.t.record(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.s.End = time.Now()
	b.t.record(b.s)
}

// newHTTPClient returns the http.Client for one caller: a private
// transport (so idle connections are released with the stack), wrapped in
// a span recorder when t is non-nil.
func newHTTPClient(t *tracer, name string, root bool) (*http.Client, *http.Transport) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	if t == nil {
		return &http.Client{Transport: base}, base
	}
	return &http.Client{Transport: &transport{t: t, name: name, root: root, base: base}}, base
}

// traceTree indexes one phase's spans by request.
type traceTree struct {
	byReq map[uint64][]span
}

func newTraceTree(spans []span) *traceTree {
	tt := &traceTree{byReq: map[uint64][]span{}}
	for _, s := range spans {
		tt.byReq[s.Req] = append(tt.byReq[s.Req], s)
	}
	return tt
}

// named returns the spans of one request with the given name.
func (tt *traceTree) named(req uint64, name string) []span {
	var out []span
	for _, s := range tt.byReq[req] {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// roots returns every client span, one per round trip the benchmark made.
func (tt *traceTree) roots() []span {
	var out []span
	for req := range tt.byReq {
		out = append(out, tt.named(req, spanClient)...)
	}
	return out
}
