package platform

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// TestTracedBatchBitIdentical is the platform-layer tracing invariant: a
// MeasureManyCtx batch under a sampled span must return exactly what the
// untraced MeasureMany door returns — sizes and errors both — while
// recording the size_many span with its plan-compile and kernel children and
// one provenance record per served slot.
func TestTracedBatchBitIdentical(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 23, UniverseSize: 1 << 12, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{
		SampleRate: 1,
		Seed:       71,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
	for _, p := range d.Interfaces() {
		reqs := randomBatch(p, 2000+uint64(len(p.Name())), 48)
		want, err := p.MeasureMany(reqs)
		if err != nil {
			t.Fatalf("%s: untraced MeasureMany: %v", p.Name(), err)
		}
		root := tr.StartRoot("test." + p.Name())
		got, err := p.MeasureManyCtx(trace.NewContext(context.Background(), root), reqs)
		root.End()
		if err != nil {
			t.Fatalf("%s: traced MeasureManyCtx: %v", p.Name(), err)
		}
		served := 0
		for i := range reqs {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("%s slot %d: traced err=%v, untraced err=%v", p.Name(), i, got[i].Err, want[i].Err)
			}
			if want[i].Err != nil {
				if got[i].Err.Error() != want[i].Err.Error() {
					t.Fatalf("%s slot %d: traced err %q, untraced %q", p.Name(), i, got[i].Err, want[i].Err)
				}
				continue
			}
			if got[i].Size != want[i].Size {
				t.Fatalf("%s slot %d: traced size %d, untraced %d", p.Name(), i, got[i].Size, want[i].Size)
			}
			served++
		}

		id, ok := trace.ParseTraceID(root.TraceID())
		if !ok {
			t.Fatalf("%s: root trace ID %q does not parse", p.Name(), root.TraceID())
		}
		dump, ok := tr.Dump(id)
		if !ok {
			t.Fatalf("%s: traced batch left no buffered trace", p.Name())
		}
		var sizeMany, kernel int
		for _, s := range dump.Spans {
			switch s.Name {
			case "platform.size_many":
				sizeMany++
			case "platform.kernel":
				kernel++
			}
		}
		if sizeMany != 1 {
			t.Fatalf("%s: size_many spans %d, want 1", p.Name(), sizeMany)
		}
		if served > 0 && kernel != 1 {
			t.Fatalf("%s: kernel spans %d, want 1", p.Name(), kernel)
		}

		recs := 0
		for _, r := range tr.Provenance().Records() {
			if r.Platform == p.Name() && r.TraceID == root.TraceID() {
				if r.Source != "platform" || r.Key == "" {
					t.Fatalf("%s: malformed provenance record %+v", p.Name(), r)
				}
				recs++
			}
		}
		if recs != served {
			t.Fatalf("%s: provenance records %d, want one per served slot (%d)", p.Name(), recs, served)
		}
	}
}

// TestTracedSerialDoorsBitIdentical covers the serial ctx doors: MeasureCtx
// and EstimateCtx under a sampled span must return exactly what Measure and
// Estimate return, record one platform span per query (with the error
// pinned on the span when the spec is rejected), and emit one provenance
// record per successful answer. A span-free context takes the bare path and
// records nothing.
func TestTracedSerialDoorsBitIdentical(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 23, UniverseSize: 1 << 12, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{
		SampleRate: 1,
		Seed:       79,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
	p := d.Facebook
	req := EstimateRequest{Spec: targeting.Attr(2)}

	wantM, err := p.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := p.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}

	root := tr.StartRoot("test.serial")
	ctx := trace.NewContext(context.Background(), root)
	gotM, err := p.MeasureCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := p.EstimateCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	badReq := EstimateRequest{Spec: targeting.Attr(99999)}
	if _, err := p.MeasureCtx(ctx, badReq); err == nil {
		t.Fatal("traced MeasureCtx accepted an unknown option")
	}
	root.End()
	if gotM != wantM || gotE != wantE {
		t.Fatalf("traced doors = (%d, %d), untraced = (%d, %d)", gotM, gotE, wantM, wantE)
	}

	id, ok := trace.ParseTraceID(root.TraceID())
	if !ok {
		t.Fatalf("root trace ID %q does not parse", root.TraceID())
	}
	dump, ok := tr.Dump(id)
	if !ok {
		t.Fatal("serial doors left no buffered trace")
	}
	var measured, estimated, errored int
	for _, s := range dump.Spans {
		switch s.Name {
		case "platform.measure":
			measured++
			if s.Err != "" {
				errored++
			}
		case "platform.estimate":
			estimated++
		}
	}
	if measured != 2 || estimated != 1 || errored != 1 {
		t.Fatalf("spans: measure=%d (errored=%d), estimate=%d; want 2 (1 errored) and 1", measured, errored, estimated)
	}
	recs := tr.Provenance().Records()
	if len(recs) != 2 {
		t.Fatalf("provenance records = %d, want 2 (one per successful answer)", len(recs))
	}
	for _, r := range recs {
		if r.Source != "platform" || r.Key != targeting.Canonical(req.Spec) || r.TraceID != root.TraceID() {
			t.Fatalf("malformed serial provenance record %+v", r)
		}
	}

	// Span-free context: bare path, nothing recorded.
	before := tr.Len()
	gotPlain, err := p.MeasureCtx(context.Background(), req)
	if err != nil || gotPlain != wantM {
		t.Fatalf("plain-ctx MeasureCtx = (%d, %v), want (%d, nil)", gotPlain, err, wantM)
	}
	if tr.Len() != before {
		t.Fatal("plain-ctx serial call buffered a trace")
	}
}

// TestUntracedBatchTouchesNoTracer pins the disabled-path contract: with a
// live default tracer installed but no span in the context, MeasureManyCtx
// must record nothing — the sampling decision is the root's, made upstream,
// and its absence means the whole batch stays dark.
func TestUntracedBatchTouchesNoTracer(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 23, UniverseSize: 1 << 12, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{
		SampleRate: 1,
		Seed:       73,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)

	p := d.Facebook
	reqs := randomBatch(p, 3000, 16)
	if _, err := p.MeasureManyCtx(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("untraced batch buffered %d traces", n)
	}
	if n := tr.Provenance().Len(); n != 0 {
		t.Fatalf("untraced batch left %d provenance records", n)
	}
}
