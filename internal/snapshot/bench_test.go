package snapshot

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// BenchmarkSnapshotLoad measures boot-to-first-query from a snapshot: parse,
// universe reconstruction, view wiring, and one measurement batch. The
// snapshot is written once in setup; every iteration re-loads it cold (the
// page cache stays warm, which is the steady-state a restarting shard sees).
func BenchmarkSnapshotLoad(b *testing.B) {
	opts := platform.DeployOptions{Seed: 11, UniverseSize: 1 << 15, Metrics: obs.NewRegistry()}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.adusnap")
	if _, err := WriteDeployment(path, d, opts); err != nil {
		b.Fatal(err)
	}
	reqs := []platform.EstimateRequest{{Spec: targeting.And(targeting.Attr(0), targeting.Attr(1))}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts
		o.Metrics = obs.NewRegistry()
		dep, _, err := LoadDeployment(path, o)
		if err != nil {
			b.Fatal(err)
		}
		dep.Facebook.MeasureMany(reqs)
	}
}

// BenchmarkDeploymentBuild is the baseline BenchmarkSnapshotLoad displaces:
// the same deployment built from hash draws, to first query.
func BenchmarkDeploymentBuild(b *testing.B) {
	reqs := []platform.EstimateRequest{{Spec: targeting.And(targeting.Attr(0), targeting.Attr(1))}}
	for i := 0; i < b.N; i++ {
		dep, err := platform.NewDeployment(platform.DeployOptions{
			Seed: 11, UniverseSize: 1 << 15, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		dep.Facebook.MeasureMany(reqs)
	}
}

// benchReport is one child process's measurement, printed as a single JSON
// line the parent harness scrapes.
type benchReport struct {
	Mode         string  `json:"mode"`
	UniverseSize int     `json:"universe_size"`
	ReadyMS      float64 `json:"ready_ms"`
	FirstQueryMS float64 `json:"first_query_ms"`
	VmRSSKB      int64   `json:"vmrss_kb"`
	SnapshotMB   float64 `json:"snapshot_mb,omitempty"`
}

const benchMarker = "SNAP_BENCH_REPORT "

// vmRSSKB reads the process's resident set from /proc/self/status; 0 when
// the platform does not expose it.
func vmRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// benchFirstQuery is the representative first batch a just-booted server
// answers: a handful of catalog compositions on Facebook.
func benchFirstQuery(d *platform.Deployment) {
	reqs := []platform.EstimateRequest{
		{Spec: targeting.Attr(0)},
		{Spec: targeting.And(targeting.Attr(1), targeting.Attr(2))},
		{Spec: targeting.And(targeting.Attr(3), targeting.Attr(4))},
	}
	d.Facebook.MeasureMany(reqs)
}

// TestSnapshotBenchChild is the harness's re-exec target; it only runs when
// the parent sets SNAP_BENCH_CHILD, so a fresh process pays the honest boot
// cost (heap, page cache mappings) the parent then records.
func TestSnapshotBenchChild(t *testing.T) {
	mode := os.Getenv("SNAP_BENCH_CHILD")
	if mode == "" {
		t.Skip("harness child: set SNAP_BENCH_CHILD")
	}
	size, err := strconv.Atoi(os.Getenv("SNAP_BENCH_SIZE"))
	if err != nil {
		t.Fatalf("SNAP_BENCH_SIZE: %v", err)
	}
	path := os.Getenv("SNAP_BENCH_PATH")
	opts := platform.DeployOptions{Seed: 11, UniverseSize: size, Metrics: obs.NewRegistry()}

	var d *platform.Deployment
	rep := benchReport{Mode: mode, UniverseSize: size}
	start := time.Now()
	switch mode {
	case "build":
		d, err = platform.NewDeployment(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Ready-to-serve means warmed: platformd materializes every option
		// audience before taking traffic (-warm), else early queries pay the
		// materialization lazily. Snapshot loads skip this entirely (Warm is
		// a no-op on a view-backed interface).
		for _, p := range d.Interfaces() {
			p.Warm()
		}
		rep.ReadyMS = float64(time.Since(start).Microseconds()) / 1e3
		if _, err := WriteDeployment(path, d, opts); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(path); err == nil {
			rep.SnapshotMB = float64(st.Size()) / (1 << 20)
		}
	case "load":
		d, _, err = LoadDeployment(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep.ReadyMS = float64(time.Since(start).Microseconds()) / 1e3
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	qStart := time.Now()
	benchFirstQuery(d)
	rep.FirstQueryMS = float64(time.Since(qStart).Microseconds()) / 1e3
	rep.VmRSSKB = vmRSSKB()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(benchMarker + string(out))
}

// runBenchChild re-execs the test binary for one honest fresh-process
// measurement and scrapes its report line.
func runBenchChild(t *testing.T, mode, path string, size int) benchReport {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestSnapshotBenchChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SNAP_BENCH_CHILD="+mode,
		"SNAP_BENCH_SIZE="+strconv.Itoa(size),
		"SNAP_BENCH_PATH="+path,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child %s: %v\n%s", mode, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), benchMarker); ok {
			var rep benchReport
			if err := json.Unmarshal([]byte(rest), &rep); err != nil {
				t.Fatalf("child %s report: %v", mode, err)
			}
			return rep
		}
	}
	t.Fatalf("child %s produced no report:\n%s", mode, out)
	return benchReport{}
}

// TestSnapshotBench10 is the PR's acceptance harness: gated behind
// SNAP_BENCH=1 because it builds a full deployment (minutes at the default
// 2^22). It measures boot-to-first-query and RSS for a built vs a
// snapshot-loaded deployment in separate fresh processes and writes
// results/BENCH_10.json (override with SNAP_BENCH_OUT).
//
//	SNAP_BENCH=1 go test ./internal/snapshot/ -run TestSnapshotBench10 -v -timeout 2h
func TestSnapshotBench10(t *testing.T) {
	if os.Getenv("SNAP_BENCH") == "" {
		t.Skip("set SNAP_BENCH=1 to run the boot benchmark harness")
	}
	size := 1 << 22
	if s := os.Getenv("SNAP_BENCH_SIZE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SNAP_BENCH_SIZE: %v", err)
		}
		size = v
	}
	path := filepath.Join(t.TempDir(), "bench10.adusnap")
	build := runBenchChild(t, "build", path, size)
	load := runBenchChild(t, "load", path, size)

	speedup := build.ReadyMS / load.ReadyMS
	result := map[string]any{
		"bench":       "snapshot_boot_to_first_query",
		"universe":    size,
		"catalog":     catalog.PlatformFacebook + "+" + catalog.PlatformGoogle + "+" + catalog.PlatformLinkedIn,
		"build":       build,
		"load":        load,
		"speedup":     speedup,
		"rss_ratio":   float64(load.VmRSSKB) / float64(build.VmRSSKB),
		"generated":   time.Now().UTC().Format(time.RFC3339),
		"go_max_proc": os.Getenv("GOMAXPROCS"),
	}
	out := os.Getenv("SNAP_BENCH_OUT")
	if out == "" {
		out = filepath.Join("..", "..", "results", "BENCH_10.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		t.Fatal(err)
	}
	enc, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("build ready %.1fms rss %dKB; load ready %.1fms rss %dKB; speedup %.1fx",
		build.ReadyMS, build.VmRSSKB, load.ReadyMS, load.VmRSSKB, speedup)
	if speedup < 10 {
		t.Errorf("snapshot speedup %.1fx, want >= 10x", speedup)
	}
	if load.VmRSSKB > build.VmRSSKB {
		t.Errorf("snapshot RSS %dKB exceeds built RSS %dKB", load.VmRSSKB, build.VmRSSKB)
	}
}
