package cluster

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// newTestTracer builds a deterministic always-sample tracer with its own
// metrics registry and provenance log, isolated from other tests.
func newTestTracer(seed uint64) *trace.Tracer {
	return trace.New(trace.Options{
		SampleRate: 1,
		Seed:       seed,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
}

// dumpTrace fetches the buffered trace a span belongs to, failing the test
// when it was never recorded.
func dumpTrace(t *testing.T, tr *trace.Tracer, span *trace.Span) trace.TraceDump {
	t.Helper()
	id, ok := trace.ParseTraceID(span.TraceID())
	if !ok {
		t.Fatalf("span trace ID %q does not parse", span.TraceID())
	}
	d, ok := tr.Dump(id)
	if !ok {
		t.Fatalf("trace %s not in buffer", span.TraceID())
	}
	return d
}

// hasAnnotation reports whether the annotation list carries k=v.
func hasAnnotation(as []trace.Annotation, k, v string) bool {
	for _, a := range as {
		if a.Key == k && a.Value == v {
			return true
		}
	}
	return false
}

// countSpans counts dump spans with the given name carrying every k=v pair
// in kv.
func countSpans(d trace.TraceDump, name string, kv ...string) int {
	n := 0
outer:
	for _, s := range d.Spans {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if !hasAnnotation(s.Annotations, kv[i], kv[i+1]) {
				continue outer
			}
		}
		n++
	}
	return n
}

// TestTracedFailoverBitIdentical is satellite coverage for tracing under the
// failure-injection battery: a traced scatter-gather with a dead shard must
// (a) stay bit-identical to the untraced single-node answer — tracing
// observes the scatter, never steers it — and (b) leave a trace that tells
// the failover story: per-attempt shard spans with outcome ok/failover,
// a round-1 reassignment, and provenance records naming the surviving
// shards and the extra round.
func TestTracedFailoverBitIdentical(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	single, err := platform.NewDeployment(platform.DeployOptions{
		Seed: eqSeed, UniverseSize: eqUniverse, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, flaky := buildFlakyCluster(t, 3, 1, opts, 0)
	flaky["shard-01"].down.Store(true)

	p := single.Facebook
	reqs := batteryRequests(p, 4242, 24)
	want := p.MeasureMany(reqs)

	tr := newTestTracer(11)
	root := tr.StartRoot("test.traced_failover")
	ctx := trace.NewContext(context.Background(), root)
	got, err := coord.MeasureManyCtx(ctx, p.Name(), reqs)
	root.End()
	if err != nil {
		t.Fatalf("failover with a live replica should succeed: %v", err)
	}
	for i := range reqs {
		matchSlot(t, "traced failover", i, got[i], want[i])
	}

	d := dumpTrace(t, tr, root)
	if n := countSpans(d, "cluster.size_many", "failover_rounds", "1"); n != 1 {
		t.Fatalf("size_many spans with failover_rounds=1: %d, want 1", n)
	}
	if n := countSpans(d, "cluster.shard", "shard", "shard-01", "outcome", "failover"); n != 1 {
		t.Fatalf("failover spans for the dead shard: %d, want 1", n)
	}
	if n := countSpans(d, "cluster.shard", "round", "1", "outcome", "ok"); n < 1 {
		t.Fatal("no successful round-1 reassignment span recorded")
	}
	if n := countSpans(d, "cluster.shard", "outcome", "ok"); n < 3 {
		t.Fatalf("ok shard-attempt spans: %d, want >= 3 (two primaries + reassignment)", n)
	}
	for _, s := range d.Spans {
		if s.Name == "cluster.shard" && hasAnnotation(s.Annotations, "outcome", "failover") && s.Err == "" {
			t.Fatal("failover attempt span carries no error")
		}
	}

	recs := tr.Provenance().Records()
	okSlots := 0
	for i := range want {
		if want[i].Err == nil {
			okSlots++
		}
	}
	if len(recs) != okSlots {
		t.Fatalf("provenance records: %d, want one per successful slot (%d)", len(recs), okSlots)
	}
	for _, r := range recs {
		if r.Source != "cluster" {
			t.Fatalf("provenance source %q, want cluster", r.Source)
		}
		if r.FailoverRounds != 1 {
			t.Fatalf("provenance failover_rounds %d, want 1", r.FailoverRounds)
		}
		if len(r.Shards) != 2 || r.Shards[0] != "shard-00" || r.Shards[1] != "shard-02" {
			t.Fatalf("provenance shards %v, want [shard-00 shard-02]", r.Shards)
		}
		if r.TraceID != root.TraceID() {
			t.Fatalf("provenance trace %q, want %q", r.TraceID, root.TraceID())
		}
		if r.Key == "" || r.PlanHash == "" {
			t.Fatalf("provenance record missing key (%q) or plan hash (%q)", r.Key, r.PlanHash)
		}
	}
}

// TestTracedRetryRecorded pins the retry story in the trace: a transient
// failure absorbed by the same-shard retry budget must surface as an
// attempt-0 span with outcome=retry followed by an attempt-1 ok span, with
// zero failover rounds — and the counts still match the single node.
func TestTracedRetryRecorded(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	single, err := platform.NewDeployment(platform.DeployOptions{
		Seed: eqSeed, UniverseSize: eqUniverse, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, flaky := buildFlakyCluster(t, 2, 1, opts, 1)
	flaky["shard-00"].failFirst.Store(1)

	p := single.LinkedIn
	reqs := batteryRequests(p, 909, 8)
	want := p.MeasureMany(reqs)

	tr := newTestTracer(13)
	root := tr.StartRoot("test.traced_retry")
	ctx := trace.NewContext(context.Background(), root)
	got, err := coord.MeasureManyCtx(ctx, p.Name(), reqs)
	root.End()
	if err != nil {
		t.Fatalf("retry budget should have absorbed the transient failure: %v", err)
	}
	for i := range reqs {
		matchSlot(t, "traced retry", i, got[i], want[i])
	}

	d := dumpTrace(t, tr, root)
	if n := countSpans(d, "cluster.shard", "shard", "shard-00", "attempt", "0", "outcome", "retry"); n != 1 {
		t.Fatalf("retry spans for shard-00 attempt 0: %d, want 1", n)
	}
	if n := countSpans(d, "cluster.shard", "shard", "shard-00", "attempt", "1", "outcome", "ok"); n != 1 {
		t.Fatalf("ok spans for shard-00 attempt 1: %d, want 1", n)
	}
	if n := countSpans(d, "cluster.size_many", "failover_rounds", "0"); n != 1 {
		t.Fatal("retry escalated to a failover round")
	}
}

// TestTracedPartialProvenance checks the refusal path leaves evidence: a
// partial result (dead shard, no replicas) must error the size_many span
// and emit exactly one Partial provenance record — which shards did answer,
// and that the value was withheld, not under-counted.
func TestTracedPartialProvenance(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	coord, flaky := buildFlakyCluster(t, 3, 0, opts, 0)
	flaky["shard-02"].down.Store(true)

	p, err := coord.Metadata().ByName("facebook")
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 is always answerable, so the batch reaches the shards.
	reqs := append([]platform.EstimateRequest{{Spec: targeting.Attr(0)}}, batteryRequests(p, 777, 3)...)

	tr := newTestTracer(17)
	root := tr.StartRoot("test.traced_partial")
	ctx := trace.NewContext(context.Background(), root)
	_, err = coord.MeasureManyCtx(ctx, "facebook", reqs)
	root.End()
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("dead shard without replicas: got %v, want ErrPartial", err)
	}

	d := dumpTrace(t, tr, root)
	errored := false
	for _, s := range d.Spans {
		if s.Name == "cluster.size_many" && s.Err != "" {
			errored = true
		}
	}
	if !errored {
		t.Fatal("partial result left no errored size_many span")
	}

	recs := tr.Provenance().Records()
	if len(recs) != 1 {
		t.Fatalf("partial batch provenance records: %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Partial {
		t.Fatal("provenance record not marked partial")
	}
	if r.Value != 0 {
		t.Fatalf("withheld result carries a value: %d", r.Value)
	}
	if len(r.Shards) != 2 {
		t.Fatalf("partial provenance shards %v, want the two survivors", r.Shards)
	}
	if r.TraceID != root.TraceID() {
		t.Fatalf("partial provenance trace %q, want %q", r.TraceID, root.TraceID())
	}
}

// TestUntracedScatterRecordsNothing is the cost-discipline check: without a
// span in the context the scatter-gather must not touch the tracer at all —
// no spans, no provenance — while returning the same answer.
func TestUntracedScatterRecordsNothing(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	coord, _ := buildFlakyCluster(t, 3, 1, opts, 0)
	tr := newTestTracer(19)
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)

	p, err := coord.Metadata().ByName("google")
	if err != nil {
		t.Fatal(err)
	}
	reqs := batteryRequests(p, 313, 8)
	if _, err := coord.MeasureManyCtx(context.Background(), "google", reqs); err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("untraced scatter buffered %d traces", n)
	}
	if n := tr.Provenance().Len(); n != 0 {
		t.Fatalf("untraced scatter left %d provenance records", n)
	}
}
