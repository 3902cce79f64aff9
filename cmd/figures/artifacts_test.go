package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/snapshot"
)

// generatedAt matches REPORT.md's run timestamp, the one byte range of an
// artifact that differs between runs.
var generatedAt = regexp.MustCompile(`(?m)^Generated \S+\. `)

// TestArtifactsReproduce regenerates the paper's artifacts at the default
// settings, once from a built deployment and once from a full snapshot of
// it, and requires each run to reproduce every committed results/*.txt and
// results/REPORT.md byte for byte. Only REPORT.md's timestamp is masked;
// its claim tally is compared. metrics.txt (wall-clock-bearing) and the
// BENCH_*.json files are not compared. A change that moves an artifact on
// purpose regenerates results/ with `go run ./cmd/figures`. Gated behind
// ARTIFACT_CHECK=1: it takes about a minute on two cores.
func TestArtifactsReproduce(t *testing.T) {
	if os.Getenv("ARTIFACT_CHECK") == "" {
		t.Skip("set ARTIFACT_CHECK=1 to regenerate and diff results/")
	}
	const committed = "../../results"
	want, err := filepath.Glob(filepath.Join(committed, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, filepath.Join(committed, "REPORT.md"))
	for i := range want {
		want[i] = filepath.Base(want[i])
	}
	slices.Sort(want)

	opts := platform.DeployOptions{UniverseSize: defaultUniverse}
	snapPath := filepath.Join(t.TempDir(), "results.adusnap")
	for _, snap := range []string{"", snapPath} {
		name := "built"
		if snap != "" {
			name = "snapshot"
			d, err := platform.NewDeployment(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.WriteDeployment(snapPath, d, opts); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := run(dir, defaultUniverse, 0, defaultK, defaultGranCalls, "", snap); err != nil {
			t.Fatalf("%s: %v", name, err)
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
			t.Errorf("%s: wrote %v, results/ holds %v", name, got, want)
		}
		for _, file := range want {
			sameArtifact(t, name, file, filepath.Join(committed, file), filepath.Join(dir, file))
		}
	}
}

// sameArtifact reports the first line at which a regenerated artifact
// differs from its committed copy.
func sameArtifact(t *testing.T, run, file, committed, regenerated string) {
	t.Helper()
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(regenerated)
	if err != nil {
		t.Errorf("%s: %v", run, err)
		return
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
			t.Errorf("%s: %s differs from results/ at line %d:\n  committed:   %q\n  regenerated: %q", run, file, i+1, w, g)
			return
		}
	}
}
