package core

import (
	"testing"

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

// TestTracedSerialMeasureChain walks one spec through the serial provider
// chain twice under a sampled root: the first cache measure is a miss
// that must continue the trace into the platform layer (cache.measure →
// platform.measure, provenance from the platform), the second is a cache
// hit served without touching the platform (provenance from the cache).
// Both answers must equal the untraced twin chain's.
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
		got, err := traced.measure(root, spec)
		if err != nil {
			t.Fatalf("traced measure call %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("traced measure call %d = %d, untraced = %d", i, got, want)
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
	if spans["cache.measure"] != 2 {
		t.Fatalf("cache.measure spans = %d, want 2 (miss + hit): %v", spans["cache.measure"], spans)
	}
	if spans["platform.measure"] != 1 {
		t.Fatalf("platform.measure spans = %d, want 1 (the miss only): %v", spans["platform.measure"], spans)
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
	got := traced.measureMany(root, specs)
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
