package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/snapshot"
)

// generatedAt matches REPORT.md's run timestamp, the one byte range of an
// artifact that differs between runs.
var generatedAt = regexp.MustCompile(`(?m)^Generated \S+\. `)

// committed is the results/ directory the artifacts are checked against.
const committed = "../../results"

// TestArtifactsReproduce regenerates the paper's artifacts at the default
// settings and requires them to reproduce the committed results/ byte for
// byte, in four setups:
//   - built: run() over a built deployment, every results/*.txt and
//     results/REPORT.md;
//   - snapshot: run() over a full snapshot of it, the same files;
//   - http: the portable phases (all but the deployment-only studies)
//     through a single adapi.Server node and one adapi.Client per
//     interface;
//   - cluster: the portable phases through a coordinator over three
//     in-process shards.
//
// Only REPORT.md's timestamp is masked; its claim tally is compared.
// metrics.txt (wall-clock-bearing) and the BENCH_*.json files are not
// compared. A change that moves an artifact on purpose regenerates
// results/ with `go run ./cmd/figures`. Gated behind ARTIFACT_CHECK=1: it
// takes over a minute on two cores.
func TestArtifactsReproduce(t *testing.T) {
	if os.Getenv("ARTIFACT_CHECK") == "" {
		t.Skip("set ARTIFACT_CHECK=1 to regenerate and diff results/")
	}
	want, err := filepath.Glob(filepath.Join(committed, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, filepath.Join(committed, "REPORT.md"))
	for i := range want {
		want[i] = filepath.Base(want[i])
	}
	slices.Sort(want)

	checkRun(t, "built", want, "")

	// One built deployment is written as the snapshot and served by the
	// HTTP node.
	opts := platform.DeployOptions{UniverseSize: defaultUniverse}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "results.adusnap")
	if _, err := snapshot.WriteDeployment(snapPath, d, opts); err != nil {
		t.Fatal(err)
	}
	providers, stop := httpProviders(t, d)
	checkPortable(t, "http", providers)
	stop()
	checkRun(t, "snapshot", want, snapPath)
	checkPortable(t, "cluster", clusterProviders(t))
}

// checkRun runs cmd/figures at the defaults, from snapPath when set, and
// compares every file it writes but metrics.txt with results/.
func checkRun(t *testing.T, setup string, want []string, snapPath string) {
	t.Helper()
	defer logElapsed(t, setup, time.Now())
	dir := t.TempDir()
	if err := run(dir, defaultUniverse, 0, defaultK, defaultGranCalls, "", snapPath); err != nil {
		t.Fatalf("%s: %v", setup, err)
	}
	var got []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "metrics.txt" {
			got = append(got, e.Name())
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: wrote %v, results/ holds %v", setup, got, want)
	}
	for _, file := range want {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Errorf("%s: %v", setup, err)
			continue
		}
		sameArtifact(t, setup, file, data)
	}
}

// checkPortable runs every phase that needs no in-process deployment
// through providers, with run()'s runner settings at seed 0, and compares
// each rendering with its results/ file.
func checkPortable(t *testing.T, setup string, providers []core.Provider) {
	t.Helper()
	defer logElapsed(t, setup, time.Now())
	r, err := experiments.NewRunner(experiments.Config{Providers: providers, K: defaultK, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", setup, err)
	}
	names, err := experiments.ExpandExperiments([]string{"all"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		res, err := r.RunExperiment(name, experiments.PhaseOptions{GranularityCalls: defaultGranCalls})
		if err != nil {
			t.Fatalf("%s: %s: %v", setup, name, err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatalf("%s: %s: %v", setup, name, err)
		}
		sameArtifact(t, setup, res.File, buf.Bytes())
	}
}

func logElapsed(t *testing.T, setup string, start time.Time) {
	t.Helper()
	t.Logf("%s: checked in %v", setup, time.Since(start).Round(time.Millisecond))
}

// httpProviders serves d from one adapi.Server on loopback and returns an
// adapi.Client for each of its interfaces, and the server's stop function.
func httpProviders(t *testing.T, d *platform.Deployment) ([]core.Provider, func()) {
	t.Helper()
	srv, err := adapi.NewServer(d, adapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var providers []core.Provider
	for _, p := range d.Interfaces() {
		c, err := adapi.NewClient(context.Background(), ts.URL, p.Name(), adapi.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		providers = append(providers, c)
	}
	return providers, ts.Close
}

// clusterProviders builds three in-process shards of the default universe
// (one replica each, 2^14-user partitions) and returns a coordinator
// provider for each interface.
func clusterProviders(t *testing.T) []core.Provider {
	t.Helper()
	ids := []string{"s0", "s1", "s2"}
	ring, err := cluster.NewRing(ids, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, defaultUniverse, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]cluster.Conn, len(ids))
	for i, id := range ids {
		if conns[i], err = cluster.NewShard(id, layout, platform.DeployOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := cluster.NewCoordinator(cluster.Options{Layout: layout, Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	var providers []core.Provider
	for _, p := range coord.Metadata().Interfaces() {
		cp, err := coord.Provider(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		providers = append(providers, cp)
	}
	return providers
}

// sameArtifact reports the first line at which a regenerated artifact
// differs from its committed copy.
func sameArtifact(t *testing.T, setup, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(committed, file))
	if err != nil {
		t.Fatal(err)
	}
	mask := []byte("Generated <timestamp>. ")
	wl := strings.Split(string(generatedAt.ReplaceAll(want, mask)), "\n")
	gl := strings.Split(string(generatedAt.ReplaceAll(got, mask)), "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			w, g := "", ""
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			t.Errorf("%s: %s differs from results/ at line %d:\n  committed:   %q\n  regenerated: %q", setup, file, i+1, w, g)
			return
		}
	}
}
