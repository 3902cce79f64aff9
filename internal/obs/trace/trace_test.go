package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestTracer(t *testing.T, opts Options) *Tracer {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	return New(opts)
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Provenance() != nil {
		t.Fatal("nil tracer has provenance")
	}
	s := tr.StartRoot("x")
	if s != nil {
		t.Fatalf("nil tracer StartRoot = %v, want nil", s)
	}
	// All span methods must be safe on nil.
	s.Annotate("k", "v")
	s.AnnotateInt("n", 7)
	s.SetError(errors.New("boom"))
	s.End()
	if got := s.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if s.Sampled() {
		t.Fatal("nil span sampled")
	}
	if sc := s.Context(); sc.Valid() {
		t.Fatal("nil span has valid context")
	}
	ctx := NewContext(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
	if tr.StartChild(nil, "y") != nil {
		t.Fatal("nil tracer StartChild non-nil")
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("nil tracer Len = %d", n)
	}
	if s := tr.Summaries(0); s != nil {
		t.Fatalf("nil tracer Summaries = %v", s)
	}
	if _, ok := tr.Dump(TraceID{1}); ok {
		t.Fatal("nil tracer Dump ok")
	}
	// Handler on a nil tracer must still serve an empty listing.
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traces"`) {
		t.Fatalf("nil tracer handler: code=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestRootChildRecording(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 1})
	root := tr.StartRoot("audit.measure")
	if !root.Sampled() {
		t.Fatal("rate-1 root not sampled")
	}
	root.Annotate("platform", "platform-a")
	child := tr.StartChild(root, "platform.size")
	child.AnnotateInt("specs", 64)
	child.SetError(errors.New("bad spec"))
	child.End()
	child.End() // idempotent
	root.End()

	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	id, ok := ParseTraceID(root.TraceID())
	if !ok {
		t.Fatalf("bad root trace id %q", root.TraceID())
	}
	d, ok := tr.Dump(id)
	if !ok {
		t.Fatal("Dump miss")
	}
	if len(d.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(d.Spans))
	}
	// Start-sorted: root first.
	if d.Spans[0].Name != "audit.measure" || d.Spans[0].ParentID != "" {
		t.Fatalf("root span wrong: %+v", d.Spans[0])
	}
	c := d.Spans[1]
	if c.Name != "platform.size" || c.ParentID != d.Spans[0].SpanID {
		t.Fatalf("child span wrong: %+v", c)
	}
	if len(c.Annotations) != 1 || c.Annotations[0].Key != "specs" || c.Annotations[0].Value != "64" {
		t.Fatalf("child annotations = %+v", c.Annotations)
	}
	if c.Err != "bad spec" {
		t.Fatalf("child err = %q", c.Err)
	}

	sums := tr.Summaries(0)
	if len(sums) != 1 || sums[0].Root != "audit.measure" || sums[0].Spans != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestUnsampledCostsNothing(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 0})
	root := tr.StartRoot("x")
	if root != nil {
		t.Fatalf("rate-0 root with no slow threshold = %v, want nil", root)
	}
	if tr.StartChild(root, "y") != nil {
		t.Fatal("child of nil root non-nil")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
}

func TestSlowRootForceRecordedAndLogged(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf)
	sl.now = func() time.Time { return time.Date(2026, 8, 8, 1, 2, 3, 0, time.UTC) }
	tr := newTestTracer(t, Options{SampleRate: 0, SlowThreshold: time.Microsecond, SlowLog: sl})
	root := tr.StartRoot("slow.op")
	if root == nil {
		t.Fatal("slow-threshold tracer returned nil root")
	}
	if root.Sampled() {
		t.Fatal("rate-0 root sampled")
	}
	// Children of the unsampled root stay free.
	if tr.StartChild(root, "child") != nil {
		t.Fatal("unsampled root produced a child span")
	}
	root.Annotate("spec", "k1")
	time.Sleep(2 * time.Microsecond)
	root.End()

	if tr.Len() != 1 {
		t.Fatalf("slow root not force-recorded: Len = %d", tr.Len())
	}
	var e slowEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("slow log line: %v (%q)", err, buf.String())
	}
	if e.Name != "slow.op" || e.Sampled || e.DurationMS <= 0 || e.TraceID == "" {
		t.Fatalf("slow entry = %+v", e)
	}
	if e.Time != "2026-08-08T01:02:03Z" {
		t.Fatalf("slow entry time = %q", e.Time)
	}
	if len(e.Annotations) != 1 || e.Annotations[0].Key != "spec" {
		t.Fatalf("slow entry annotations = %+v", e.Annotations)
	}
}

func TestFastUnsampledRootNotRecorded(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 0, SlowThreshold: time.Hour})
	root := tr.StartRoot("fast.op")
	if root == nil {
		t.Fatal("nil root despite slow threshold")
	}
	root.End()
	if tr.Len() != 0 {
		t.Fatalf("fast unsampled root recorded: Len = %d", tr.Len())
	}
}

func TestContextPropagation(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 1})
	root := tr.StartRoot("root")
	ctx := NewContext(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext lost span")
	}
	child := ChildOf(FromContext(ctx), "child")
	if child == nil || child.Context().Trace != root.Context().Trace {
		t.Fatal("ChildOf left the root's trace")
	}
	// An untraced context passes through unchanged.
	base := context.Background()
	if NewContext(base, nil) != base || ChildOf(FromContext(base), "orphan") != nil {
		t.Fatal("untraced context grew a span")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) non-nil")
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 1})
	client := tr.StartRoot("client.call")
	hdr := client.Context().Format()

	sc, err := ParseHeader(hdr)
	if err != nil {
		t.Fatalf("ParseHeader(%q): %v", hdr, err)
	}
	srv := tr.StartRemote(sc, "server.handle")
	if srv == nil {
		t.Fatal("StartRemote nil for sampled context")
	}
	if srv.Context().Trace != client.Context().Trace {
		t.Fatal("remote span left the trace")
	}
	if srv.Context().Span == client.Context().Span {
		t.Fatal("remote span reused client span ID")
	}
	srv.End()
	client.End()

	d, _ := tr.Dump(client.Context().Trace)
	if len(d.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(d.Spans))
	}
	var server spanJSON
	for _, s := range d.Spans {
		if s.Name == "server.handle" {
			server = s
		}
	}
	if server.ParentID != client.Context().Span.String() {
		t.Fatalf("server parent = %q, want client span %q", server.ParentID, client.Context().Span)
	}

	// Unsampled remote context with no slow threshold: free.
	sc.Sampled = false
	if s := tr.StartRemote(sc, "x"); s != nil {
		t.Fatalf("unsampled remote span = %v, want nil", s)
	}
	// Invalid context falls back to a fresh root.
	fresh := tr.StartRemote(SpanContext{}, "fresh")
	if fresh == nil || fresh.Context().Trace == client.Context().Trace {
		t.Fatal("invalid remote context did not start a fresh trace")
	}
}

func TestBufferEviction(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Options{SampleRate: 1, MaxTraces: 2, MaxSpansPerTrace: 2, Metrics: reg, Seed: 7})
	var ids []TraceID
	for i := 0; i < 3; i++ {
		s := tr.StartRoot("r")
		ids = append(ids, s.Context().Trace)
		// Overflow the per-trace span cap: 1 root + 2 children > 2.
		c1 := tr.StartChild(s, "c1")
		c2 := tr.StartChild(s, "c2")
		c1.End()
		c2.End()
		s.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if _, ok := tr.Dump(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	d, ok := tr.Dump(ids[2])
	if !ok {
		t.Fatal("newest trace missing")
	}
	if len(d.Spans) != 2 || d.Dropped != 1 {
		t.Fatalf("spans = %d dropped = %d, want 2/1", len(d.Spans), d.Dropped)
	}
	if v := reg.CounterValue("trace_traces_evicted_total"); v != 1 {
		t.Fatalf("evicted counter = %d", v)
	}
	if v := reg.CounterValue("trace_spans_dropped_total"); v != 3 {
		t.Fatalf("dropped counter = %d", v)
	}
}

func TestSampleRateRoughlyHolds(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 0.25, MaxTraces: 4096})
	sampled := 0
	const n = 4000
	for i := 0; i < n; i++ {
		s := tr.StartRoot("r")
		if s.Sampled() {
			sampled++
		}
		s.End()
	}
	frac := float64(sampled) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("sample fraction = %.3f, want ≈0.25", frac)
	}
}

func TestDefaultTracerSwap(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	tr := newTestTracer(t, Options{SampleRate: 1})
	SetDefault(tr)
	if Default() != tr {
		t.Fatal("SetDefault did not install")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not disable")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 1})
	root := tr.StartRoot("audit")
	child := tr.StartChild(root, "shard")
	child.Annotate("shard", "s1")
	child.End()
	root.End()

	h := tr.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var listing struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing: %v", err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].Root != "audit" {
		t.Fatalf("listing = %+v", listing)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+listing.Traces[0].TraceID, nil))
	var d TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("dump spans = %d", len(d.Spans))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace=zzzz", nil))
	if rec.Code != 400 {
		t.Fatalf("malformed id code = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+strings.Repeat("ab", 16), nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id code = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil || len(listing.Traces) != 1 {
		t.Fatalf("limit listing: err=%v n=%d", err, len(listing.Traces))
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := newTestTracer(t, Options{SampleRate: 1, MaxTraces: 512})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := tr.StartRoot("r")
				c := tr.StartChild(root, "c")
				c.AnnotateInt("i", int64(i))
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 512 {
		t.Fatalf("Len = %d, want full buffer 512", tr.Len())
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{{0, "0"}, {7, "7"}, {-1, "-1"}, {9223372036854775807, "9223372036854775807"}, {-9223372036854775808, "-9223372036854775808"}} {
		if got := itoa(tc.v); got != tc.want {
			t.Fatalf("itoa(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
