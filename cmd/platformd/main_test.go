package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/adapi"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/targeting"
)

func TestBuildHandlerServes(t *testing.T) {
	handler, d, _, err := buildHandler(config{seed: 7, universe: 8000, warm: true, comp: true, pprofOn: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Facebook == nil {
		t.Fatal("no deployment returned")
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// A full measure round trip through the served handler.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := adapi.NewClient(ctx, ts.URL, catalog.PlatformLinkedIn, adapi.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Measure(targeting.Attr(0))
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 {
		t.Fatalf("estimate %d", v)
	}

	// The measure round trip must be visible in the text exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`adapi_server_requests_total{door="measure",interface="linkedin"}`,
		`platform_queries_total{door="measure",interface="linkedin"}`,
		`adapi_server_request_seconds{door="measure",interface="linkedin",quantile="0.99"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	// pprof is mounted when enabled.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

func TestBuildHandlerWithStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	handler, _, _, err := buildHandler(config{seed: 7, universe: 8000}, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := adapi.NewClient(ctx, ts.URL, catalog.PlatformLinkedIn, adapi.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(targeting.Attr(1)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records after one measure, want 1", st.Len())
	}
}

// TestBuildHandlerTracing covers the -trace wiring: the debug endpoints are
// mounted, and a request carrying a sampled X-Adaudit-Trace header is
// continued into a buffered trace the operator can list.
func TestBuildHandlerTracing(t *testing.T) {
	defer trace.SetDefault(nil) // buildHandler installs a process-wide tracer
	handler, _, _, err := buildHandler(config{seed: 7, universe: 8000, traceOn: true, traceSample: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	const traceID = "000102030405060708090a0b0c0d0e0f"
	req, err := http.NewRequest("GET", ts.URL+"/facebook/options", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.HeaderName, "00-"+traceID+"-00000000000000aa-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced options status %d", resp.StatusCode)
	}

	// The server span ends after the response is written, so the trace can
	// reach the buffer after the client holds its answer: poll the listing
	// until it names the trace or a deadline passes.
	deadline := time.Now().Add(5 * time.Second)
	for _, path := range []string{"/debug/traces", "/debug/provenance"} {
		for {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s status %d", path, resp.StatusCode)
			}
			if path != "/debug/traces" || strings.Contains(string(body), traceID) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s does not list continued trace %s:\n%s", path, traceID, body)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestBuildHandlerShardMode(t *testing.T) {
	cfg := config{
		seed: 7, universe: 8000, comp: true,
		shardID: "a", ring: "a, b", ringReplicas: 1, partSize: 1024,
	}
	handler, d, _, err := buildHandler(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no deployment returned")
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// The cluster door answers raw counts for a held partition.
	conn := adapi.NewShardConn("a", ts.URL, nil)
	ring, err := cluster.NewRing([]string{"a", "b"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, 8000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	held := layout.HeldPartitions("a")
	if len(held) == 0 {
		t.Skip("shard a holds nothing at this size")
	}
	res, err := conn.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure,
		held[:1], []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if err != nil {
		t.Fatalf("cluster door: %v", err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("cluster door result: %+v", res)
	}
	if res[0].Count < 0 || res[0].Count > int64(layout.Span(held[0]).Len()) {
		t.Fatalf("raw count %d outside partition bounds", res[0].Count)
	}
}

func TestBuildHandlerShardModeErrors(t *testing.T) {
	if _, _, _, err := buildHandler(config{seed: 7, universe: 8000, shardID: "a"}, nil); err == nil {
		t.Fatal("-shard-id without -ring accepted")
	}
	if _, _, _, err := buildHandler(config{seed: 7, universe: 8000, shardID: "zz", ring: "a,b"}, nil); err == nil {
		t.Fatal("shard id outside ring accepted")
	}
}

func TestBuildHandlerBadUniverse(t *testing.T) {
	if _, _, _, err := buildHandler(config{seed: 7, universe: 10}, nil); err == nil {
		t.Fatal("tiny universe accepted")
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run(config{addr: "256.256.256.256:99999", seed: 7, universe: 8000}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// -jobs mounts the async audit-job service: /healthz grows the jobs block
// and a job submitted over HTTP runs to completion against the host
// deployment.
func TestBuildHandlerJobsMode(t *testing.T) {
	if _, _, _, err := buildHandler(config{seed: 7, universe: 8000, jobsOn: true}, nil); err == nil {
		t.Fatal("-jobs without -jobs-dir accepted")
	}

	cfg := config{seed: 7, universe: 8000, jobsOn: true, jobsDir: t.TempDir(), jobsWorkers: 1}
	handler, _, mgr, err := buildHandler(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mgr == nil {
		t.Fatal("jobs mode returned no manager")
	}
	defer mgr.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"jobs":{"enabled":true`) {
		t.Fatalf("healthz missing jobs block: %s", body)
	}

	// Submit a job sized to share the host deployment and follow it home.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiments":["fig1"],"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d", resp.StatusCode)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch got.State {
		case "done":
			if len(got.Result) == 0 {
				t.Fatal("done job carries no result")
			}
			return
		case "failed", "canceled":
			t.Fatalf("job %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", got.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newJobsFactory picks the right backend per spec: the host deployment for
// matching sizing, a dedicated deployment otherwise, the scatter-gather
// coordinator for cluster targets — and rejects malformed cluster maps.
func TestNewJobsFactory(t *testing.T) {
	cfg := config{seed: 7, universe: 8000}
	host, err := platform.NewDeployment(platform.DeployOptions{Seed: cfg.seed, UniverseSize: cfg.universe})
	if err != nil {
		t.Fatal(err)
	}
	factory := newJobsFactory(cfg, host)
	ctx := context.Background()

	// Matching (or defaulted) sizing shares the host deployment.
	shared, err := factory(ctx, jobs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != len(host.Interfaces()) {
		t.Fatalf("host-shared factory returned %d providers", len(shared))
	}
	spec := targeting.Attr(0)
	want, err := host.Facebook.Measure(platform.EstimateRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range shared {
		if p.Name() != catalog.PlatformFacebook {
			continue
		}
		got, err := p.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shared provider measured %d, host %d", got, want)
		}
	}

	// Mismatched sizing builds a dedicated deployment.
	dedicated, err := factory(ctx, jobs.Spec{Universe: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(dedicated) != len(host.Interfaces()) {
		t.Fatalf("dedicated factory returned %d providers", len(dedicated))
	}

	// A malformed cluster map surfaces the resolver's error.
	if _, err := factory(ctx, jobs.Spec{Cluster: "not-a-shard-map"}); err == nil {
		t.Fatal("malformed cluster map accepted")
	}
}

// A cluster-targeted spec routes the job through the scatter-gather
// coordinator: two real shard servers behind name=url entries, providers
// for all four interfaces, answers matching a single-node deployment.
func TestNewJobsFactoryClusterTarget(t *testing.T) {
	cfg := config{seed: 7, universe: 8000}
	shardServer := func(id string) *httptest.Server {
		scfg := config{
			seed: cfg.seed, universe: cfg.universe,
			shardID: id, ring: "a,b", ringReplicas: 0, partSize: 1024,
		}
		handler, _, _, err := buildHandler(scfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(handler)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := shardServer("a"), shardServer("b")

	host, err := platform.NewDeployment(platform.DeployOptions{Seed: cfg.seed, UniverseSize: cfg.universe})
	if err != nil {
		t.Fatal(err)
	}
	factory := newJobsFactory(cfg, host)
	// Universe 0 defaults to the daemon's own sizing.
	providers, err := factory(context.Background(), jobs.Spec{
		Cluster:       "a=" + a.URL + ",b=" + b.URL,
		PartitionSize: 1024,
		Seed:          cfg.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(providers) != len(host.Interfaces()) {
		t.Fatalf("cluster factory returned %d providers", len(providers))
	}
	spec := targeting.Attr(0)
	want, err := host.Facebook.Measure(platform.EstimateRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range providers {
		if p.Name() != catalog.PlatformFacebook {
			continue
		}
		got, err := p.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cluster provider measured %d, single-node %d", got, want)
		}
	}
}

// run() end to end: serve on a real port (store, jobs, tracing, pprof all
// on), answer a request, then shut down gracefully on SIGINT.
func TestRunServesAndShutsDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	cfg := config{
		addr: addr, seed: 7, universe: 8000,
		storeDir: filepath.Join(dir, "store"),
		jobsOn:   true, jobsDir: filepath.Join(dir, "jobs"), jobsWorkers: 1,
		traceOn: true, pprofOn: true,
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg) }()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The serving process handles SIGINT itself: graceful shutdown, nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not shut down on SIGINT")
	}
}

// -snapshot-write then -snapshot: the reloaded deployment answers
// identically, /healthz advertises the snapshot identity, and a stale
// snapshot (wrong seed) is refused at boot with the typed error.
func TestBuildHandlerSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "full.adusnap")
	_, built, _, err := buildHandler(config{seed: 7, universe: 8000, snapWrite: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	handler, loaded, _, err := buildHandler(config{seed: 7, universe: 8000, snapPath: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := platform.EstimateRequest{Spec: targeting.And(targeting.Attr(0), targeting.Attr(1))}
	want, err := built.Facebook.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Facebook.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("snapshot-booted measure %d, built %d", got, want)
	}

	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, field := range []string{`"catalog_hash"`, `"snapshot"`, `"content_hash"`, `"built_at"`} {
		if !strings.Contains(string(body), field) {
			t.Errorf("snapshot-booted healthz missing %s: %s", field, body)
		}
	}

	if _, _, _, err := buildHandler(config{seed: 8, universe: 8000, snapPath: path}, nil); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("wrong-seed snapshot boot: got %v, want ErrConfigMismatch", err)
	}
	if _, _, _, err := buildHandler(config{seed: 7, universe: 8000, snapPath: filepath.Join(t.TempDir(), "absent")}, nil); err == nil {
		t.Fatal("missing snapshot file accepted")
	}
}

// Shard mode: the persisted snapshot covers exactly the node's partitions,
// reloads into a serving shard, and is refused by any other node.
func TestBuildHandlerShardSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-a.adusnap")
	// replicas=0 so the two nodes hold disjoint slices — a's snapshot must
	// not satisfy b's layout.
	cfg := config{
		seed: 7, universe: 8000,
		shardID: "a", ring: "a,b", ringReplicas: 0, partSize: 1024,
		snapWrite: path,
	}
	if _, _, _, err := buildHandler(cfg, nil); err != nil {
		t.Fatal(err)
	}
	cfg.snapWrite, cfg.snapPath = "", path
	handler, _, _, err := buildHandler(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ring, err := cluster.NewRing([]string{"a", "b"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, 8000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	held := layout.HeldPartitions("a")
	if len(held) == 0 {
		t.Skip("shard a holds nothing at this size")
	}
	conn := adapi.NewShardConn("a", ts.URL, nil)
	res, err := conn.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure,
		held[:1], []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if err != nil {
		t.Fatalf("cluster door after snapshot boot: %v", err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("cluster door result: %+v", res)
	}
	if _, err := conn.CatalogHash(); err != nil {
		t.Fatalf("catalog hash from snapshot-booted shard: %v", err)
	}

	// Node b's spans differ, so a's snapshot must be refused.
	bad := cfg
	bad.shardID = "b"
	if _, _, _, err := buildHandler(bad, nil); !errors.Is(err, snapshot.ErrSpanMismatch) {
		t.Fatalf("foreign shard snapshot: got %v, want ErrSpanMismatch", err)
	}
}

// The jobs factory shares a snapshot-backed host deployment: every job
// sized like the host reuses the mmap'd catalog instead of rebuilding a
// dedicated deployment, and answers identically to the built twin.
func TestNewJobsFactorySharesSnapshotHost(t *testing.T) {
	opts := platform.DeployOptions{Seed: 7, UniverseSize: 8000}
	built, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "host.adusnap")
	if _, err := snapshot.WriteDeployment(path, built, opts); err != nil {
		t.Fatal(err)
	}
	host, _, err := snapshot.LoadDeployment(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	factory := newJobsFactory(config{seed: 7, universe: 8000}, host)
	providers, err := factory(context.Background(), jobs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	spec := targeting.And(targeting.Attr(0), targeting.Attr(1))
	want, err := built.Facebook.Measure(platform.EstimateRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range providers {
		if p.Name() != catalog.PlatformFacebook {
			continue
		}
		got, err := p.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("snapshot-hosted job provider measured %d, built %d", got, want)
		}
	}
}

// TestServerCutsTrickledBody: a client trickling a request body past the
// read timeout is cut off — the handler's body read fails with a timeout —
// instead of holding the request open for as long as it likes.
func TestServerCutsTrickledBody(t *testing.T) {
	bodyErr := make(chan error, 1)
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		bodyErr <- err
	}), time.Second, 200*time.Millisecond, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /measure-batch HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// One byte every 20ms: the whole body would take 20s.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := conn.Write([]byte{'x'}); err != nil {
			break // the server closed the connection
		}
		select {
		case err := <-bodyErr:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("trickled body read ended with %v, want a timeout", err)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("trickled body cut off after %v", took)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	select {
	case err := <-bodyErr:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("trickled body read ended with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never cut the trickled body off")
	}
}
