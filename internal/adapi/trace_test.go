package adapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/targeting"
)

// TestStoredMeasureTraceProvenance pins the store-tier provenance story on
// both traced auditor doors, /measure and /measure-batch: the first traced
// call misses the store and is answered (and recorded) by the platform, the
// second is served from disk — "store"-sourced provenance under the second
// call's trace, and the server span annotated with the store_hits count
// (1 on /measure, a one-slot call of the same path, 2 on /measure-batch).
func TestStoredMeasureTraceProvenance(t *testing.T) {
	specs := []targeting.Spec{targeting.Attr(4), targeting.Attr(6)}
	doors := []struct {
		name    string
		specs   []targeting.Spec
		measure func(ctx context.Context, c *Client, specs []targeting.Spec) ([]int64, error)
		hitNote trace.Annotation
	}{
		{"measure", specs[:1], func(ctx context.Context, c *Client, specs []targeting.Spec) ([]int64, error) {
			v, err := c.MeasureCtx(ctx, specs[0])
			return []int64{v}, err
		}, trace.Annotation{Key: "store_hits", Value: "1"}},
		{"measure-batch", specs, func(ctx context.Context, c *Client, specs []targeting.Spec) ([]int64, error) {
			var out []int64
			for _, r := range c.MeasureManyCtx(ctx, specs) {
				if r.Err != nil {
					return nil, r.Err
				}
				out = append(out, r.Size)
			}
			return out, nil
		}, trace.Annotation{Key: "store_hits", Value: "2"}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			srvTracer := newTestTracer(53)
			ts, _ := startServer(t, ServerOptions{Store: st, Metrics: obs.NewRegistry(), Tracer: srvTracer})

			cliTracer := newTestTracer(59)
			c, err := NewClient(context.Background(), ts.URL, "facebook", ClientOptions{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}

			measure := func(name string) ([]int64, string) {
				root := cliTracer.StartRoot(name)
				defer root.End()
				vs, err := door.measure(trace.NewContext(context.Background(), root), c, door.specs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return vs, root.TraceID()
			}
			v1, tid1 := measure("audit.miss")
			v2, tid2 := measure("audit.hit")
			want := make(map[string]int64) // canonical spec → platform answer
			for i, spec := range door.specs {
				if v1[i] != v2[i] {
					t.Fatalf("slot %d: store-served measure %d differs from platform answer %d", i, v2[i], v1[i])
				}
				want[targeting.Canonical(spec)] = v1[i]
			}
			if st.Len() != len(door.specs) {
				t.Fatalf("store holds %d records, want %d", st.Len(), len(door.specs))
			}

			// Provenance: one platform record per spec under the miss's
			// trace, one store record per spec under the hit's.
			tids := map[string]string{"platform": tid1, "store": tid2}
			perSource := make(map[string]int)
			for _, r := range srvTracer.Provenance().Records() {
				canon, _, _ := strings.Cut(r.Key, "\x00")
				if v, ok := want[canon]; r.Platform != "facebook" || !ok || r.Value != v {
					t.Fatalf("malformed stored-door provenance %+v", r)
				}
				if r.TraceID != tids[r.Source] {
					t.Fatalf("%s record under trace %s, want %s: %+v", r.Source, r.TraceID, tids[r.Source], r)
				}
				perSource[r.Source]++
			}
			if n := len(door.specs); perSource["platform"] != n || perSource["store"] != n || len(perSource) != 2 {
				t.Fatalf("provenance sources %v, want %d platform and %d store records", perSource, n, n)
			}

			// The hit's server span carries the store annotation.
			id, ok := trace.ParseTraceID(tid2)
			if !ok {
				t.Fatalf("trace ID %q does not parse", tid2)
			}
			sd := waitTrace(t, srvTracer, id)
			annotated := false
			for _, s := range sd.Spans {
				for _, a := range s.Annotations {
					if a == door.hitNote {
						annotated = true
					}
				}
			}
			if !annotated {
				t.Fatalf("store hit left no %s=%s annotation on the server span", door.hitNote.Key, door.hitNote.Value)
			}
		})
	}
}

// newTestTracer builds a deterministic always-sample tracer with isolated
// metrics and provenance.
func newTestTracer(seed uint64) *trace.Tracer {
	return trace.New(trace.Options{
		SampleRate: 1,
		Seed:       seed,
		Metrics:    obs.NewRegistry(),
		Provenance: trace.NewProvenanceLog(0, nil),
	})
}

// waitTrace polls tr until it holds trace id, failing after a deadline. A
// server span ends after its response is written, so the client can hold
// the answer before the server's trace is recorded.
func waitTrace(t *testing.T, tr *trace.Tracer, id trace.TraceID) trace.TraceDump {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, ok := tr.Dump(id); ok {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %v not recorded within 5s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// spanNames flattens a dump for containment checks.
func spanNames(d trace.TraceDump) map[string]int {
	out := make(map[string]int, len(d.Spans))
	for _, s := range d.Spans {
		out[s.Name]++
	}
	return out
}

// TestTracePropagationClientServer drives one traced measurement through
// the real client→server HTTP path and checks the trace spans both
// processes' tracers: the client records its exchange span, the server
// continues the same trace ID from the X-Adaudit-Trace header, and both
// sides leave provenance and a metrics exemplar pointing at the trace.
func TestTracePropagationClientServer(t *testing.T) {
	srvTracer := newTestTracer(31)
	ts, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry(), Tracer: srvTracer})

	cliTracer := newTestTracer(37)
	reg := obs.NewRegistry()
	c, err := NewClient(context.Background(), ts.URL, "facebook", ClientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	root := cliTracer.StartRoot("audit.test")
	ctx := trace.NewContext(context.Background(), root)
	v, err := c.MeasureCtx(ctx, targeting.Attr(0))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("measured size %d, want > 0", v)
	}

	id, ok := trace.ParseTraceID(root.TraceID())
	if !ok {
		t.Fatalf("root trace ID %q does not parse", root.TraceID())
	}

	// Client side: the exchange span is buffered under the root's trace.
	cd, ok := cliTracer.Dump(id)
	if !ok {
		t.Fatal("client tracer did not buffer the trace")
	}
	if n := spanNames(cd)["adapi.client"]; n != 1 {
		t.Fatalf("client exchange spans: %d, want 1", n)
	}

	// Server side: same trace ID, continued from the header — the server
	// never saw the root span, only its wire context.
	sd, ok := srvTracer.Dump(id)
	if !ok {
		t.Fatal("server tracer did not continue the client's trace")
	}
	names := spanNames(sd)
	if names["adapi.server.measure"] != 1 {
		t.Fatalf("server spans %v, want one adapi.server.measure", names)
	}

	// Provenance: the client records the remote exchange, the server records
	// the platform measurement — both linked to the same trace.
	var remote, plat int
	for _, r := range cliTracer.Provenance().Records() {
		if r.Source == "remote" && r.TraceID == root.TraceID() {
			remote++
			if r.Endpoint != ts.URL {
				t.Fatalf("remote provenance endpoint %q, want %q", r.Endpoint, ts.URL)
			}
			if r.Value != v {
				t.Fatalf("remote provenance value %d, want %d", r.Value, v)
			}
		}
	}
	for _, r := range srvTracer.Provenance().Records() {
		if r.Source == "platform" && r.TraceID == root.TraceID() {
			plat++
		}
	}
	if remote != 1 || plat != 1 {
		t.Fatalf("provenance records remote=%d platform=%d, want 1 each", remote, plat)
	}

	// Exemplar: the client's request-latency series links back to the trace.
	found := false
	for _, s := range reg.Gather() {
		if s.Name == "adapi_client_request_seconds" && s.Label("platform") == "facebook" {
			found = true
			if s.Hist.Exemplar == nil || s.Hist.Exemplar.TraceID != root.TraceID() {
				t.Fatalf("request-latency exemplar %+v, want trace %s", s.Hist.Exemplar, root.TraceID())
			}
		}
	}
	if !found {
		t.Fatal("adapi_client_request_seconds series not found")
	}
}

// TestTraceBatchPropagation is the batch-door variant: one traced
// MeasureManyCtx must reach the server as a single continued trace through
// /measure-batch, with per-slot remote provenance client-side.
func TestTraceBatchPropagation(t *testing.T) {
	srvTracer := newTestTracer(41)
	ts, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry(), Tracer: srvTracer})

	cliTracer := newTestTracer(43)
	c, err := NewClient(context.Background(), ts.URL, "linkedin", ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	specs := []targeting.Spec{
		targeting.Attr(0),
		targeting.Attr(1),
		targeting.And(targeting.Attr(0), targeting.Attr(2)),
	}
	root := cliTracer.StartRoot("audit.batch")
	ctx := trace.NewContext(context.Background(), root)
	res := c.MeasureManyCtx(ctx, specs)
	root.End()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}

	id, _ := trace.ParseTraceID(root.TraceID())
	cd, ok := cliTracer.Dump(id)
	if !ok {
		t.Fatal("client tracer did not buffer the batch trace")
	}
	if n := spanNames(cd)["adapi.client_batch"]; n != 1 {
		t.Fatalf("client batch spans: %d, want 1", n)
	}
	sd, ok := srvTracer.Dump(id)
	if !ok {
		t.Fatal("server tracer did not continue the batch trace")
	}
	if n := spanNames(sd)["adapi.server.measure-batch"]; n != 1 {
		t.Fatalf("server batch spans: %d, want 1", n)
	}
	remote := 0
	for _, r := range cliTracer.Provenance().Records() {
		if r.Source == "remote" && r.TraceID == root.TraceID() {
			remote++
		}
	}
	if remote != len(specs) {
		t.Fatalf("remote provenance records: %d, want one per slot (%d)", remote, len(specs))
	}
}

// TestServerTraceContinuationPolicy pins the server-side cost and sampling
// policy: no header → no span; an unsampled header (flags 00) → no span
// (the client decided once for the whole tree); a sampled header → exactly
// one continued trace.
func TestServerTraceContinuationPolicy(t *testing.T) {
	srvTracer := newTestTracer(47)
	ts, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry(), Tracer: srvTracer})

	get := func(header string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/facebook/options", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(trace.HeaderName, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options status %d", resp.StatusCode)
		}
	}

	get("") // untraced
	if n := srvTracer.Len(); n != 0 {
		t.Fatalf("untraced request buffered %d traces", n)
	}
	get("00-00000000000000000000000000000abc-00000000000000ef-00") // unsampled
	if n := srvTracer.Len(); n != 0 {
		t.Fatalf("unsampled request buffered %d traces", n)
	}
	get("00-00000000000000000000000000000abc-00000000000000ef-01") // sampled
	id, _ := trace.ParseTraceID("00000000000000000000000000000abc")
	// The continued trace must be retrievable by the remote trace ID.
	d := waitTrace(t, srvTracer, id)
	if n := srvTracer.Len(); n != 1 {
		t.Fatalf("sampled request buffered %d traces, want 1", n)
	}
	if n := spanNames(d)["adapi.server.options"]; n != 1 {
		t.Fatalf("continued spans %v, want one adapi.server.options", spanNames(d))
	}
}

// TestDebugTraceEndpoints checks the /debug/traces and /debug/provenance
// routes serve the tracer handed to the server — including the one-trace
// dump by ID — and degrade to empty listings with tracing disabled.
func TestDebugTraceEndpoints(t *testing.T) {
	srvTracer := newTestTracer(53)
	ts, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry(), Tracer: srvTracer})

	span := srvTracer.StartRoot("local.work")
	span.Annotate("k", "v")
	span.End()

	var listing struct {
		Traces []trace.TraceSummary `json:"traces"`
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0].Root != "local.work" {
		t.Fatalf("trace listing %+v, want one local.work trace", listing.Traces)
	}

	var dump trace.TraceDump
	resp, err = http.Get(ts.URL + "/debug/traces?trace=" + listing.Traces[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dump.Spans) != 1 || dump.Spans[0].Name != "local.work" {
		t.Fatalf("trace dump %+v, want the local.work span", dump)
	}

	resp, err = http.Get(ts.URL + "/debug/provenance")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provenance status %d", resp.StatusCode)
	}

	// Tracing disabled: both endpoints still answer (empty listings).
	tsOff, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry()})
	for _, path := range []string{"/debug/traces", "/debug/provenance"} {
		resp, err := http.Get(tsOff.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with tracing off: status %d", path, resp.StatusCode)
		}
	}
}

// TestHealthzShardEcho checks the shard-mode readiness surface: /healthz
// must echo the shard's identity, the layout fingerprint every node has to
// agree on, and its held-partition count — and a plain server must omit all
// three.
func TestHealthzShardEcho(t *testing.T) {
	layout := testLayout(t, []string{"s0", "s1", "s2"}, 1)
	shard := testShard(t, layout, "s1")
	ts := startShardServer(t, shard)

	var h healthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
	if h.Shard != "s1" {
		t.Fatalf("healthz shard %q, want s1", h.Shard)
	}
	if want := fmt.Sprintf("%016x", layout.Fingerprint()); h.RingHash != want {
		t.Fatalf("healthz ring_hash %q, want %q", h.RingHash, want)
	}
	if h.Partitions != len(shard.Held()) {
		t.Fatalf("healthz partitions %d, want %d", h.Partitions, len(shard.Held()))
	}
	if h.Tracing {
		t.Fatal("healthz reports tracing enabled on an untraced server")
	}

	// Plain (non-shard) server: liveness only, no shard fields, and the
	// tracing flag flips with a tracer installed.
	tsPlain, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry(), Tracer: newTestTracer(59)})
	var plain healthResponse
	resp, err = http.Get(tsPlain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if plain.Status != "ok" || plain.Shard != "" || plain.RingHash != "" || plain.Partitions != 0 {
		t.Fatalf("plain healthz %+v, want bare ok", plain)
	}
	if !plain.Tracing {
		t.Fatal("healthz does not report tracing enabled")
	}
}

// TestClusterDoorTracePropagation runs a traced scatter-gather over real
// HTTP shards, each with its own tracer, and checks every shard's server
// continued the coordinator's trace — the full fig1 path in miniature.
func TestClusterDoorTracePropagation(t *testing.T) {
	nodes := []string{"s0", "s1", "s2"}
	layout := testLayout(t, nodes, 1)
	shardTracers := make(map[string]*trace.Tracer, len(nodes))
	conns := make([]cluster.Conn, 0, len(nodes))
	for i, n := range nodes {
		s := testShard(t, layout, n)
		tr := newTestTracer(uint64(61 + i))
		shardTracers[n] = tr
		srv, err := NewServer(s.Deployment(), ServerOptions{Metrics: obs.NewRegistry(), Shard: s, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		hts := newTestHTTPServer(t, srv)
		conns = append(conns, NewShardConn(n, hts.URL, nil))
	}
	coord := testCoordinator(t, layout, conns)

	coordTracer := newTestTracer(67)
	root := coordTracer.StartRoot("audit.cluster")
	ctx := trace.NewContext(context.Background(), root)
	reqs := []platform.EstimateRequest{
		{Spec: targeting.Attr(0)},
		{Spec: targeting.And(targeting.Attr(1), targeting.Attr(2))},
	}
	got, err := coord.MeasureManyCtx(ctx, "facebook", reqs)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("slot %d: %v", i, got[i].Err)
		}
	}

	id, _ := trace.ParseTraceID(root.TraceID())
	for _, n := range nodes {
		d, ok := shardTracers[n].Dump(id)
		if !ok {
			t.Fatalf("shard %s did not continue the coordinator's trace", n)
		}
		if spanNames(d)["shard.count_batch"] < 1 {
			t.Fatalf("shard %s trace has no count_batch span: %v", n, spanNames(d))
		}
	}
	cd, ok := coordTracer.Dump(id)
	if !ok {
		t.Fatal("coordinator tracer did not buffer the trace")
	}
	names := spanNames(cd)
	if names["cluster.size_many"] != 1 || names["cluster.shard"] < len(nodes) {
		t.Fatalf("coordinator spans %v, want size_many plus one per shard", names)
	}
}

// newTestHTTPServer wraps an adapi server in an httptest server with
// cleanup (startShardServer builds its own Server; this variant takes one
// preconfigured, e.g. with a tracer).
func newTestHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}
