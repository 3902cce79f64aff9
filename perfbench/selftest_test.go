package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for auditbench when a
// cluster3-snap run boots the cluster in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "boot" {
		if err := mainBoot(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmallUniverse runs every workload of BENCHMARK.json, untraced and
// traced, on a 2^14-user universe. Each run must print exactly the named
// metrics with their units, and all runs share one fingerprint record, so
// any two shapes that disagree on rows, battery answers or core traffic
// fail the second of them; seed 7 is also checked against the committed
// reference.
func TestSmallUniverse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}

	const universe = 1 << 14
	dir := t.TempDir()
	pool := filepath.Join(dir, "pool.jsonl")
	if err := writePool(pool, universe); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snap")
	if err := prepSnapshots(snapDir, universe); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for traced := 0; traced <= 1; traced++ {
			cfg := runConfig{
				workload:  w.Name,
				seed:      defaultSeed,
				traced:    traced == 1,
				universe:  universe,
				pool:      pool,
				snapDir:   snapDir,
				records:   filepath.Join(dir, "records"),
				reference: "reference.json",
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[traced][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s in %q is not in BENCHMARK.json", w.Name, traced, name, m.Unit)
				}
			}
			if len(got) != len(want[traced]) {
				sort.Strings(got)
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json names %d: %v", w.Name, traced, len(got), len(want[traced]), got)
			}
		}
	}
}
