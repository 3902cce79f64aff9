package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

func newCoreTestTracer(seed uint64) *trace.Tracer {
	return trace.New(trace.Options{
		SampleRate: 1,
		Seed:       seed,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
}

// TestTracedSerialMeasureChain walks one spec through the provider chain
// twice under a sampled root, as the auditor's serial path does (a
// one-slot measureMany): the first is a miss that must continue the trace
// into the platform layer (cache.measure_many → platform.size_many,
// provenance from the platform), the second is a cache hit served without
// touching the platform (provenance from the cache). Both answers must
// equal the untraced twin chain's.
func TestTracedSerialMeasureChain(t *testing.T) {
	d := testDeploy(t)
	traced := NewCachingProviderWith(NewPlatformProvider(d.Facebook), obs.NewRegistry()).(*cachingProvider)
	plain := NewCachingProviderWith(NewPlatformProvider(d.Facebook), obs.NewRegistry())
	spec := targeting.Attr(3)

	want, err := plain.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}

	tr := newCoreTestTracer(41)
	root := tr.StartRoot("audit.serial")
	for i := 0; i < 2; i++ {
		got := traced.measureMany(root, []targeting.Spec{spec}, nil)[0]
		if got.Err != nil {
			t.Fatalf("traced measure call %d: %v", i, got.Err)
		}
		if got.Size != want {
			t.Fatalf("traced measure call %d = %d, untraced = %d", i, got.Size, want)
		}
	}
	root.End()

	id, ok := trace.ParseTraceID(root.TraceID())
	if !ok {
		t.Fatalf("root trace ID %q does not parse", root.TraceID())
	}
	dump, ok := tr.Dump(id)
	if !ok {
		t.Fatal("traced chain left no buffered trace")
	}
	spans := make(map[string]int)
	for _, s := range dump.Spans {
		spans[s.Name]++
	}
	if spans["cache.measure_many"] != 2 {
		t.Fatalf("cache.measure_many spans = %d, want 2 (miss + hit): %v", spans["cache.measure_many"], spans)
	}
	if spans["platform.size_many"] != 1 {
		t.Fatalf("platform.size_many spans = %d, want 1 (the miss only): %v", spans["platform.size_many"], spans)
	}

	// Provenance: the miss is recorded by the platform that answered it, the
	// hit by the cache tier that served it — one record each, no double count.
	bySource := make(map[string]int)
	for _, r := range tr.Provenance().Records() {
		if r.TraceID != root.TraceID() {
			t.Fatalf("provenance record from foreign trace: %+v", r)
		}
		if r.Key != targeting.Canonical(spec) {
			t.Fatalf("provenance key %q, want %q", r.Key, targeting.Canonical(spec))
		}
		if r.Value != want {
			t.Fatalf("provenance value %d, want %d", r.Value, want)
		}
		bySource[r.Source]++
	}
	if bySource["platform"] != 1 || bySource["cache"] != 1 || len(bySource) != 2 {
		t.Fatalf("provenance sources = %v, want one platform + one cache record", bySource)
	}
}

// TestTracedBatchMeasureChain covers the cache's traced batch path: under
// a sampled root measureMany records the batch, and the results match the
// untraced MeasureMany on a twin chain.
func TestTracedBatchMeasureChain(t *testing.T) {
	d := testDeploy(t)
	traced := NewCachingProviderWith(NewPlatformProvider(d.Facebook), obs.NewRegistry()).(*cachingProvider)
	plain := NewCachingProviderWith(NewPlatformProvider(d.Facebook), obs.NewRegistry())
	specs := []targeting.Spec{
		targeting.Attr(0),
		targeting.Attr(5),
		targeting.And(targeting.Attr(1), targeting.Attr(2)),
	}

	want := plain.MeasureMany(specs)

	tr := newCoreTestTracer(43)
	root := tr.StartRoot("audit.batch")
	got := traced.measureMany(root, specs, nil)
	root.End()

	if len(got) != len(want) {
		t.Fatalf("traced batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Size != want[i].Size {
			t.Fatalf("slot %d: traced %+v, untraced %+v", i, got[i], want[i])
		}
	}
	if tr.Len() == 0 {
		t.Fatal("traced batch buffered no trace")
	}
}

// TestTracedWaitLeavesInflightProvenance: a traced slot served by waiting
// on an in-flight miss of its key leaves one "inflight" provenance record
// under its own trace, whether the miss is another caller's or an earlier
// slot's of the same batch; the claim itself is left to the upstream layer
// that answers it (gateProvider records nothing).
func TestTracedWaitLeavesInflightProvenance(t *testing.T) {
	g := &gateProvider{entered: make(chan struct{}), release: make(chan struct{})}
	cp := NewCachingProviderWith(g, obs.NewRegistry()).(*cachingProvider)
	tr := newCoreTestTracer(47)
	spec := targeting.Attr(3)

	claimed := make(chan BatchResult)
	go func() { claimed <- cp.measureMany(nil, []targeting.Spec{spec}, nil)[0] }()
	<-g.entered
	waiter := tr.StartRoot("audit.wait")
	waited := make(chan BatchResult)
	go func() { waited <- cp.measureMany(waiter, []targeting.Spec{spec}, nil)[0] }()
	deadline := time.Now().Add(10 * time.Second)
	for s, _ := StatsOf(cp); s.Collapsed == 0; s, _ = StatsOf(cp) {
		if time.Now().After(deadline) {
			t.Fatal("traced caller never waited on the in-flight miss")
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	for _, r := range []BatchResult{<-claimed, <-waited} {
		if r.Size != 1003 || r.Err != nil {
			t.Fatalf("collapsed call = %+v, want (1003, nil)", r)
		}
	}
	waiter.End()

	batch := tr.StartRoot("audit.repeat")
	for i, r := range cp.measureMany(batch, []targeting.Spec{targeting.Attr(0), targeting.Attr(0)}, nil) {
		if r.Size != 1000 || r.Err != nil {
			t.Fatalf("repeat slot %d = %+v, want (1000, nil)", i, r)
		}
	}
	batch.End()

	recs := tr.Provenance().Records()
	if len(recs) != 2 {
		t.Fatalf("provenance records = %+v, want one per wait", recs)
	}
	for i, want := range []struct {
		root *trace.Span
		key  string
		v    int64
	}{{waiter, targeting.Canonical(spec), 1003}, {batch, targeting.Canonical(targeting.Attr(0)), 1000}} {
		r := recs[i]
		if r.Source != "inflight" || r.Platform != "gate" || r.Key != want.key || r.Value != want.v || r.TraceID != want.root.TraceID() {
			t.Fatalf("record %d = %+v, want inflight %s = %d under trace %s", i, r, want.key, want.v, want.root.TraceID())
		}
	}
}
