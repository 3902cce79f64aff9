// Package trace is the reproduction's distributed tracing core: a
// dependency-free span model propagated via context.Context inside a
// process and via the X-Adaudit-Trace header between processes, so a single
// audited measurement is attributable end to end — adauditctl client →
// adapi server → core provider chain → platform kernels → cluster
// coordinator → per-shard doors.
//
// The paper's methodology lives and dies on the trustworthiness of each
// reported audience size (§5: the authors "limited both the count and rate
// of API queries", which presumes knowing where every query went). Once
// PR 7 split measurement across a scatter-gather cluster, a fig1 number
// became the product of ring assignment, per-shard kernels, failover
// rounds, and one coordinator rounding — none of it attributable from
// aggregate counters alone. Traces restore that attribution: every sampled
// query carries a 128-bit trace ID through each layer, each layer records a
// span (name, duration, annotations such as shard ID or failover round),
// and the finished trace is retrievable from a bounded in-memory buffer
// via /debug/traces or the adauditctl -trace pretty-printer.
//
// Cost discipline: all instrumentation is nil-safe and gated per batch or
// per request, never per user. A nil *Tracer (tracing compiled in but
// disabled — the default) makes every Start* call return a nil *Span whose
// methods are no-ops, so the 2M q/s compiled batch hot loop pays one
// pointer check per batch. Unsampled traces allocate at most one root span
// (to support always-on-slow detection) and no children.
package trace

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options assembles a Tracer.
type Options struct {
	// SampleRate is the probability a new root span starts a recorded
	// trace, in [0, 1]. 0 records nothing (except slow roots, below);
	// 1 records everything.
	SampleRate float64
	// SlowThreshold, when positive, force-records any root span slower
	// than it — even on unsampled traces — and emits a structured
	// slow-query log line. Child spans of an unsampled trace are not
	// created, so a slow unsampled trace surfaces its root only.
	SlowThreshold time.Duration
	// SlowLog receives one JSON line per slow root span; nil disables the
	// slow-query log (slow roots are still force-recorded).
	SlowLog *SlowLog
	// MaxTraces bounds the in-memory trace buffer; the oldest trace is
	// evicted when a new one would exceed it. 0 selects DefaultMaxTraces.
	MaxTraces int
	// MaxSpansPerTrace bounds one trace's recorded spans; extra spans are
	// counted but dropped. 0 selects DefaultMaxSpans.
	MaxSpansPerTrace int
	// Provenance, when set, receives one record per upstream measurement
	// (see Provenance); nil disables provenance collection.
	Provenance *ProvenanceLog
	// Metrics receives the tracer's own counters (traces sampled, spans
	// recorded, traces evicted, slow queries); nil selects obs.Default().
	Metrics *obs.Registry
	// Seed fixes the trace/span ID sequence for deterministic tests;
	// 0 seeds from the wall clock.
	Seed uint64
}

// Tracer samples, collects, and serves traces. All methods are safe for
// concurrent use and safe on a nil receiver (every Start* returns nil).
type Tracer struct {
	sampleRate float64
	slow       time.Duration
	slowLog    *SlowLog
	buf        *buffer
	prov       *ProvenanceLog
	rng        atomic.Uint64

	mSampled *obs.Counter // trace_traces_sampled_total
	mDropped *obs.Counter // trace_traces_unsampled_total
	mSpans   *obs.Counter // trace_spans_recorded_total
	mSlow    *obs.Counter // trace_slow_queries_total
}

// Buffer-size defaults.
const (
	DefaultMaxTraces = 128
	DefaultMaxSpans  = 512
)

// New builds a Tracer.
func New(opts Options) *Tracer {
	if opts.MaxTraces <= 0 {
		opts.MaxTraces = DefaultMaxTraces
	}
	if opts.MaxSpansPerTrace <= 0 {
		opts.MaxSpansPerTrace = DefaultMaxSpans
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	t := &Tracer{
		sampleRate: opts.SampleRate,
		slow:       opts.SlowThreshold,
		slowLog:    opts.SlowLog,
		prov:       opts.Provenance,
		buf:        newBuffer(opts.MaxTraces, opts.MaxSpansPerTrace, reg),
		mSampled:   reg.Counter("trace_traces_sampled_total"),
		mDropped:   reg.Counter("trace_traces_unsampled_total"),
		mSpans:     reg.Counter("trace_spans_recorded_total"),
		mSlow:      reg.Counter("trace_slow_queries_total"),
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.rng.Store(seed)
	return t
}

// defaultTracer is the process-wide tracer components fall back to when not
// handed an explicit one. It starts nil: tracing is compiled in everywhere
// but disabled until a binary opts in (platformd -trace, adauditctl -trace).
var defaultTracer atomic.Pointer[Tracer]

// Default returns the process-wide tracer; nil means tracing is disabled.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs (or, with nil, disables) the process-wide tracer.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil }

// Provenance returns the tracer's provenance log (nil when disabled or not
// configured). Measurement layers check it once per batch before paying
// any provenance-collection cost.
func (t *Tracer) Provenance() *ProvenanceLog {
	if t == nil {
		return nil
	}
	return t.prov
}

// nextID steps the tracer's splitmix64 stream. Lock-free: racing callers
// may observe the same pre-state, but the returned values still differ per
// goroutine-visible CAS winner, and IDs only need to be unique in practice,
// not cryptographic.
func (t *Tracer) nextID() uint64 {
	for {
		old := t.rng.Load()
		z := old + 0x9e3779b97f4a7c15
		if t.rng.CompareAndSwap(old, z) {
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
	}
}

// sample decides whether a new root starts a recorded trace.
func (t *Tracer) sample() bool {
	if t.sampleRate >= 1 {
		return true
	}
	if t.sampleRate <= 0 {
		return false
	}
	// 53-bit uniform in [0, 1): ample resolution for a sampling knob.
	return float64(t.nextID()>>11)/(1<<53) < t.sampleRate
}

// StartRoot begins a new trace with the sampling decision applied. On an
// unsampled trace the returned span exists only to time the root for
// always-on-slow detection (nil when that is disabled too, costing
// nothing).
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	sampled := t.sample()
	if sampled {
		t.mSampled.Inc()
	} else {
		t.mDropped.Inc()
		if t.slow <= 0 {
			return nil
		}
	}
	return &Span{
		tracer: t,
		name:   name,
		sc: SpanContext{
			Trace:   TraceIDFrom(t.nextID(), t.nextID()),
			Span:    SpanIDFrom(t.nextID()),
			Sampled: sampled,
		},
		root:  true,
		start: time.Now(),
	}
}

// StartRemote continues a trace whose context arrived over the wire (the
// X-Adaudit-Trace header): the new span joins the remote trace ID with the
// remote span as parent. An invalid context falls back to StartRoot; an
// unsampled one is honored (the client decided once for the whole tree),
// with slow detection still applying to this process's root.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.StartRoot(name)
	}
	if !sc.Sampled && t.slow <= 0 {
		return nil
	}
	return &Span{
		tracer: t,
		name:   name,
		sc: SpanContext{
			Trace:   sc.Trace,
			Span:    SpanIDFrom(t.nextID()),
			Sampled: sc.Sampled,
		},
		parent: sc.Span,
		root:   true, // this process's local root: slow detection applies
		start:  time.Now(),
	}
}

// StartChild begins a span under parent. Children of nil or unsampled
// parents are nil — an unsampled trace costs one root span at most.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil || parent == nil || !parent.sc.Sampled {
		return nil
	}
	return &Span{
		tracer: t,
		name:   name,
		sc: SpanContext{
			Trace:   parent.sc.Trace,
			Span:    SpanIDFrom(t.nextID()),
			Sampled: true,
		},
		parent: parent.sc.Span,
		start:  time.Now(),
	}
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying span. A nil span returns ctx unchanged,
// so untraced paths never allocate a derived context.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx (nil when untraced).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ChildOf begins a child of parent via parent's own tracer (nil-safe), for
// call sites that hold the span rather than a context.
func ChildOf(parent *Span, name string) *Span {
	if parent == nil {
		return nil
	}
	return parent.tracer.StartChild(parent, name)
}

// Annotation is one key=value fact attached to a span (shard ID, failover
// round, kernel tiles, ...). Order is preserved; keys may repeat.
type Annotation struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed operation within a trace. All methods are no-ops on a
// nil receiver, so call sites never branch on tracing being enabled. A Span
// is owned by the goroutine that started it until End; Annotate/SetError
// must not race End.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	root   bool
	start  time.Time

	annotations []Annotation
	errMsg      string
	ended       atomic.Bool
}

// Context returns the span's wire context (zero value on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as the header renders it ("" on nil),
// for linking metrics exemplars and provenance records to traces.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.Trace.String()
}

// Sampled reports whether the span belongs to a recorded trace. Call sites
// gate expensive annotation building on it.
func (s *Span) Sampled() bool { return s != nil && s.sc.Sampled }

// ProvenanceLog returns the provenance log of the span's tracer, nil when
// the span is nil, unsampled, or its tracer collects no provenance.
// Measurement layers use one call to gate all provenance-building cost;
// tying emission to sampled spans keeps provenance and traces consistent
// (every provenance record's trace is retrievable).
func (s *Span) ProvenanceLog() *ProvenanceLog {
	if s == nil || !s.sc.Sampled {
		return nil
	}
	return s.tracer.prov
}

// Annotate attaches one key=value fact.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.annotations = append(s.annotations, Annotation{Key: key, Value: value})
}

// AnnotateInt attaches one integer-valued fact.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Annotate(key, itoa(v))
}

// SetError marks the span failed with the error's message.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End finishes the span: sampled spans are recorded into the trace buffer;
// slow roots (sampled or not) are force-recorded and logged. End is
// idempotent; later calls are no-ops.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	d := time.Since(s.start)
	t := s.tracer
	slow := s.root && t.slow > 0 && d >= t.slow
	if !s.sc.Sampled && !slow {
		return
	}
	t.mSpans.Inc()
	t.buf.record(spanRecord{
		Trace:       s.sc.Trace,
		Span:        s.sc.Span,
		Parent:      s.parent,
		Name:        s.name,
		Start:       s.start,
		Duration:    d,
		Annotations: s.annotations,
		Err:         s.errMsg,
	})
	if slow {
		t.mSlow.Inc()
		if t.slowLog != nil {
			t.slowLog.log(s, d)
		}
	}
}

// itoa renders an int64 without strconv (kept local: annotations are built
// on traced paths only, but the call sites stay allocation-obvious).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [20]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
