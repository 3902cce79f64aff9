package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/shapes"
)

// generatedAt matches REPORT.md's run timestamp, the one byte range of an
// artifact that differs between runs.
var generatedAt = regexp.MustCompile(`(?m)^Generated \S+\. `)

// committed is the results/ directory the artifacts are checked against.
const committed = "../../results"

// artifactShape is the table configuration the artifacts are checked at:
// the default deployment, and for the cluster rows three shards with one
// replica each over 2^14-user partitions.
var artifactShape = shapes.Config{
	Deploy: platform.DeployOptions{UniverseSize: defaultUniverse},
	Shards: 3, Replicas: 1, PartitionSize: 1 << 14,
}

// TestArtifactsReproduce regenerates the paper's artifacts at the default
// settings on every row of the shape table and requires them to reproduce
// the committed results/ byte for byte:
//   - a row with an in-process deployment (inproc, inproc-snap) writes
//     every results/*.txt and results/REPORT.md through write, the body of
//     run() after it opens the deployment;
//   - every other row (http, cluster, cluster-http) runs the portable
//     phases, all but the deployment-only studies, through its providers,
//     each rendering compared with its results/ file.
//
// Only REPORT.md's timestamp is masked; its claim tally is compared.
// metrics.txt (wall-clock-bearing) and the BENCH_*.json files are not
// compared. A change that moves an artifact on purpose regenerates
// results/ with `go run ./cmd/figures`. Gated behind ARTIFACT_CHECK=1: it
// takes minutes on two cores; -v logs each row's time.
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
	for _, row := range shapes.Rows {
		t.Run(row.Name, func(t *testing.T) {
			start := time.Now()
			s, err := row.Build(artifactShape)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Deployment != nil {
				checkRun(t, want, s.Deployment)
			} else {
				checkPortable(t, s.Providers)
			}
			t.Logf("%s: built and checked in %v", row.Name, time.Since(start).Round(time.Millisecond))
		})
	}
}

// checkRun writes every artifact from d at the defaults and compares every
// file written but metrics.txt with results/.
func checkRun(t *testing.T, want []string, d *platform.Deployment) {
	t.Helper()
	dir := t.TempDir()
	if err := write(dir, d, 0, defaultK, defaultGranCalls, ""); err != nil {
		t.Fatal(err)
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
		t.Errorf("wrote %v, results/ holds %v", got, want)
	}
	for _, file := range want {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Error(err)
			continue
		}
		sameArtifact(t, file, data)
	}
}

// checkPortable runs every phase that needs no in-process deployment
// through providers, with run()'s runner settings at seed 0, and compares
// each rendering with its results/ file.
func checkPortable(t *testing.T, providers []core.Provider) {
	t.Helper()
	r, err := experiments.NewRunner(experiments.Config{Providers: providers, K: defaultK, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	names, err := experiments.ExpandExperiments([]string{"all"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		res, err := r.RunExperiment(name, experiments.PhaseOptions{GranularityCalls: defaultGranCalls})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameArtifact(t, res.File, buf.Bytes())
	}
}

// sameArtifact reports the first line at which a regenerated artifact
// differs from its committed copy.
func sameArtifact(t *testing.T, file string, got []byte) {
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
			t.Errorf("%s differs from results/ at line %d:\n  committed:   %q\n  regenerated: %q", file, i+1, w, g)
			return
		}
	}
}
