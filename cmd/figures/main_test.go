package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/snapshot"
)

func TestRunWritesAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	if err := run(dir, 12000, 7, 60, 800, "", ""); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"methodology.txt", "rounding_bounds.txt",
		"figure1.txt", "figure2.txt", "figure3.txt",
		"figure4.txt", "figure5.txt", "figure6.txt",
		"table1.txt", "table2.txt", "table3.txt",
		"ext_lookalike.txt", "ext_mitigation.txt",
		"ext_delivery.txt", "ext_retargeting.txt", "REPORT.md",
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(string(data), "# ") {
			t.Errorf("%s does not start with a title line", name)
		}
		if len(data) < 100 {
			t.Errorf("%s suspiciously small (%d bytes)", name, len(data))
		}
	}
}

func TestRunBadDir(t *testing.T) {
	// A path under a regular file cannot be created.
	tmp := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(tmp, "sub"), 12000, 7, 50, 500, "", ""); err == nil {
		t.Fatal("creating results under a file should fail")
	}
}

// The CLI path surfaces a stale snapshot as a hard error: a snapshot
// written at one seed does not boot a run at another.
func TestRunRejectsStaleSnapshot(t *testing.T) {
	opts := platform.DeployOptions{Seed: 7, UniverseSize: 8000}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "figures.adusnap")
	if _, err := snapshot.WriteDeployment(snapPath, d, opts); err != nil {
		t.Fatal(err)
	}
	if err := run(t.TempDir(), 8000, 99, 10, 100, "", snapPath); err == nil {
		t.Fatal("wrong-seed snapshot accepted by figures run")
	}
}

// run() with both a snapshot boot and a persistent store: the first run
// populates the store, the second replays it from disk, and both produce
// identical figure-1 bytes.
func TestRunSnapshotWithStoreReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := platform.DeployOptions{Seed: 7, UniverseSize: 8000}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "store.adusnap")
	if _, err := snapshot.WriteDeployment(snapPath, d, opts); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "measurements")
	first, second := t.TempDir(), t.TempDir()
	if err := run(first, 8000, 7, 10, 100, storeDir, snapPath); err != nil {
		t.Fatal(err)
	}
	if err := run(second, 8000, 7, 10, 100, storeDir, snapPath); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(first, "figure1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(second, "figure1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("store replay changed figure 1")
	}
}
