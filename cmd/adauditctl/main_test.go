package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/snapshot"
)

// baseOpts returns the scaled-down options the CLI tests share.
func baseOpts(experiment, endpoint, out string) runOptions {
	return runOptions{
		experiment: experiment,
		endpoint:   endpoint,
		universe:   12000,
		seed:       7,
		k:          60,
		qps:        500,
		granCalls:  800,
		out:        out,
		format:     "text",
	}
}

// runToString executes run() into a temp file and returns its contents.
func runToString(t *testing.T, experiment, endpoint string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), baseOpts(experiment, endpoint, out)); err != nil {
		t.Fatalf("run(%s): %v", experiment, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunFig1InProcess(t *testing.T) {
	got := runToString(t, "fig1", "")
	for _, want := range []string{"Figure 1", "Individual", "Top 2-way", "facebook-restricted"} {
		if !strings.Contains(got, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestRunTab1InProcess(t *testing.T) {
	got := runToString(t, "tab1", "")
	if !strings.Contains(got, "median_overlap") || !strings.Contains(got, "linkedin") {
		t.Errorf("tab1 output malformed:\n%s", got)
	}
}

func TestRunMethodology(t *testing.T) {
	got := runToString(t, "methodology", "")
	if !strings.Contains(got, "sig_digits") {
		t.Errorf("methodology output malformed:\n%s", got)
	}
}

func TestRunMitigation(t *testing.T) {
	got := runToString(t, "mitigation", "")
	if !strings.Contains(got, "AUC") {
		t.Errorf("mitigation output malformed:\n%s", got)
	}
}

func TestRunLookalike(t *testing.T) {
	got := runToString(t, "lookalike", "")
	if !strings.Contains(got, "special-ad") {
		t.Errorf("lookalike output malformed:\n%s", got)
	}
}

func TestRunWithMetricsSummary(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	snap := filepath.Join(dir, "metrics.txt")
	o := baseOpts("fig1", "", out)
	o.metrics = true
	o.metricsOut = snap
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("run(fig1, metrics): %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"# Run metrics", "hitrate", "upstream", "fig1", "facebook-restricted", "batched", "p95_specs"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, got)
		}
	}
	snapData, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"audit_cache_hits_total", "platform_queries_total", "plans_compiled_total", "experiment_phase_seconds{phase=\"fig1\"}"} {
		if !strings.Contains(string(snapData), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), baseOpts("fig99", "", "-")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRemoteEndpoint(t *testing.T) {
	// Drive the CLI against a live platformd-equivalent server.
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 7, UniverseSize: 12000})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := adapi.NewServer(d, adapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	got := runToString(t, "fig1", ts.URL)
	if !strings.Contains(got, "Top 2-way") {
		t.Errorf("remote fig1 output malformed:\n%s", got)
	}
}

func TestRunRemoteRejectsLookalike(t *testing.T) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 7, UniverseSize: 12000})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := adapi.NewServer(d, adapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The lookalike study needs direct deployment access.
	if err := run(context.Background(), baseOpts("lookalike", ts.URL, "-")); err == nil {
		t.Fatal("remote lookalike study should fail")
	}
}

// TestRunClusterMode is the CLI acceptance path for -cluster: fig1 audited
// through a 3-shard scatter-gather cluster over live HTTP must produce
// byte-identical output to the in-process run on the same seeded universe.
func TestRunClusterMode(t *testing.T) {
	const universe = 12000
	ring, err := cluster.NewRing([]string{"s0", "s1", "s2"}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, universe, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, n := range ring.Nodes() {
		sh, err := cluster.NewShard(n, layout, platform.DeployOptions{
			Seed: 7, UniverseSize: universe, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := adapi.NewServer(sh.Deployment(), adapi.ServerOptions{Metrics: obs.NewRegistry(), Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		entries = append(entries, n+"="+ts.URL)
	}

	dir := t.TempDir()
	clusterOut := filepath.Join(dir, "cluster.txt")
	o := baseOpts("fig1", "", clusterOut)
	o.cluster = strings.Join(entries, ",")
	o.partSize = 1024
	o.replicas = 1
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	want := runToString(t, "fig1", "")
	got, err := os.ReadFile(clusterOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("cluster fig1 output differs from in-process run:\n--- cluster ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// TestRunWithTracing runs fig1 with -trace -trace-sample 1 and a -store:
// the run must print rendered span trees after the figures, and every
// provenance record must additionally land in <store>/provenance.jsonl.
func TestRunWithTracing(t *testing.T) {
	defer trace.SetDefault(nil) // run() installs a process-wide tracer
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "measurements")
	out := filepath.Join(dir, "out.txt")
	o := baseOpts("fig1", "", out)
	o.storeDir = storeDir
	o.traceOn = true
	o.sample = 1
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("run(fig1, trace): %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"# Traces:", "buffered", "provenance records", "trace ", "audit.measure"} {
		if !strings.Contains(got, want) {
			t.Errorf("traced run output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "nothing sampled") {
		t.Error("sample rate 1 run reports nothing sampled")
	}

	prov, err := os.ReadFile(filepath.Join(storeDir, "provenance.jsonl"))
	if err != nil {
		t.Fatalf("provenance archive not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(prov)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("provenance archive is empty")
	}
	var rec trace.Provenance
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("provenance line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Platform == "" || rec.Key == "" || rec.Source == "" {
		t.Fatalf("provenance record incomplete: %+v", rec)
	}
}

// TestRunClusterMetricsAndTrace drives a traced, metered fig1 through a
// 3-shard cluster: the metrics summary must include the per-shard table the
// coordinator's labeled series feed, and the trace view must render cluster
// spans.
func TestRunClusterMetricsAndTrace(t *testing.T) {
	defer trace.SetDefault(nil)
	const universe = 12000
	ring, err := cluster.NewRing([]string{"s0", "s1", "s2"}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, universe, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, n := range ring.Nodes() {
		sh, err := cluster.NewShard(n, layout, platform.DeployOptions{
			Seed: 7, UniverseSize: universe, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := adapi.NewServer(sh.Deployment(), adapi.ServerOptions{Metrics: obs.NewRegistry(), Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		entries = append(entries, n+"="+ts.URL)
	}

	out := filepath.Join(t.TempDir(), "out.txt")
	o := baseOpts("fig1", "", out)
	o.cluster = strings.Join(entries, ",")
	o.partSize = 1024
	o.replicas = 1
	o.metrics = true
	o.traceOn = true
	o.sample = 1
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("traced cluster run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		"# Run metrics",
		"shard", "parts_moved", "p95_attempt", // per-shard table header
		"s0", "s1", "s2", // one row per shard
		"cluster:", "failovers", // roll-up line
		"# Traces:", "cluster.size_many", "cluster.shard",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("traced cluster run missing %q:\n%s", want, got)
		}
	}
}

func TestNewCoordinatorFlagValidation(t *testing.T) {
	spec := adapi.ClusterSpec{Universe: 4096, Seed: 7}
	spec.Shards = "s0"
	if _, err := adapi.NewClusterCoordinator(spec); err == nil || !strings.Contains(err.Error(), "name=url") {
		t.Fatalf("malformed -cluster entry: err = %v", err)
	}
	spec.Shards = "s0=http://x,s0=http://y"
	if _, err := adapi.NewClusterCoordinator(spec); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shard name: err = %v", err)
	}
	spec.Shards = "s0=http://x"
	spec.Replicas = 1 // 1 replica needs 2 nodes
	if _, err := adapi.NewClusterCoordinator(spec); err == nil {
		t.Fatal("replicas > nodes-1 accepted")
	}
}

func TestRunSpecExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	o := baseOpts("spec", "", out)
	o.spec = specArgs{
		platform: "facebook-restricted",
		attrs:    "Interests — Electrical engineering,Interests — Cars",
	}
	err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"Ad-hoc audit", "male", "rep_ratio"} {
		if !strings.Contains(got, want) {
			t.Errorf("spec output missing %q:\n%s", want, got)
		}
	}
}

func TestResolveOptions(t *testing.T) {
	names := []string{"Interests — Cars", "Interests — Boats", "Hobbies — Cars"}
	ids, err := resolveOptions("1, Boats", names)
	if err != nil || len(ids) != 2 || ids[0] != 1 || ids[1] != 1 {
		t.Fatalf("resolveOptions = %v, %v", ids, err)
	}
	if _, err := resolveOptions("Cars", names); err == nil {
		t.Fatal("ambiguous selector accepted")
	}
	if _, err := resolveOptions("Zeppelins", names); err == nil {
		t.Fatal("unknown selector accepted")
	}
	if _, err := resolveOptions("99", names); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if got, err := resolveOptions("", names); err != nil || got != nil {
		t.Fatalf("empty selector = %v, %v", got, err)
	}
	noSel := baseOpts("spec", "", "-")
	noSel.spec = specArgs{platform: "facebook"}
	if err := run(context.Background(), noSel); err == nil {
		t.Fatal("spec with no selectors accepted")
	}
}

func TestRunJSONFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	o := baseOpts("tab1", "", out)
	o.format = "json"
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(rows) != 12 {
		t.Fatalf("json tab1 has %d rows, want 12", len(rows))
	}
	if _, ok := rows[0]["MedianOverlap"]; !ok {
		t.Fatal("json rows missing MedianOverlap")
	}
}

func TestRunBadFormat(t *testing.T) {
	bad := baseOpts("fig1", "", "-")
	bad.format = "yaml"
	if err := run(context.Background(), bad); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRunStoreAndResume is the CLI acceptance path: a run persisted into
// -store and then re-run with -resume produces byte-identical output while
// answering every measurement from disk (store misses stay flat, store hits
// climb) — the platforms see no repeat queries.
func TestRunStoreAndResume(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "measurements")
	out1 := filepath.Join(dir, "out1.txt")
	out2 := filepath.Join(dir, "out2.txt")

	first := baseOpts("fig1", "", out1)
	first.storeDir = storeDir
	if err := run(context.Background(), first); err != nil {
		t.Fatalf("stored run: %v", err)
	}

	// A populated store without -resume is refused, not silently reused.
	again := baseOpts("fig1", "", out2)
	again.storeDir = storeDir
	if err := run(context.Background(), again); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("populated store without -resume: err = %v, want refusal mentioning -resume", err)
	}

	lbl := obs.L("platform", "facebook-restricted")
	reg := obs.Default()
	hitsBefore := reg.CounterValue("audit_store_hits_total", lbl)
	missesBefore := reg.CounterValue("audit_store_misses_total", lbl)

	resumed := baseOpts("fig1", "", out2)
	resumed.storeDir = storeDir
	resumed.resume = true
	if err := run(context.Background(), resumed); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if delta := reg.CounterValue("audit_store_misses_total", lbl) - missesBefore; delta != 0 {
		t.Errorf("resumed run missed the store %d times, want 0 (every spec was persisted)", delta)
	}
	if delta := reg.CounterValue("audit_store_hits_total", lbl) - hitsBefore; delta <= 0 {
		t.Error("resumed run recorded no store hits")
	}

	d1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("resumed output differs from the stored run")
	}
}

func TestRunStoreFlagValidation(t *testing.T) {
	// -resume without -store.
	o := baseOpts("fig1", "", "-")
	o.resume = true
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-resume without -store: err = %v", err)
	}
	// -resume against an empty store.
	o.storeDir = filepath.Join(t.TempDir(), "fresh")
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("-resume on empty store: err = %v", err)
	}
}

// -snapshot boots the in-process audit from a persisted deployment and
// produces the same figure 1 text as the built deployment; a stale
// snapshot fails the run instead of silently auditing the wrong catalog.
func TestRunFig1FromSnapshot(t *testing.T) {
	opts := platform.DeployOptions{Seed: 7, UniverseSize: 12000}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "audit.adusnap")
	if _, err := snapshot.WriteDeployment(snapPath, d, opts); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "snap.txt")
	o := baseOpts("fig1", "", out)
	o.snapshot = snapPath
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("run from snapshot: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := runToString(t, "fig1", "")
	if string(got) != want {
		t.Fatal("fig1 from snapshot differs from built deployment")
	}

	bad := baseOpts("fig1", "", filepath.Join(t.TempDir(), "bad.txt"))
	bad.seed = 9
	bad.snapshot = snapPath
	if err := run(context.Background(), bad); err == nil {
		t.Fatal("wrong-seed snapshot accepted")
	}
}
