// Command figures regenerates every table and figure of the paper into a
// results directory, one text file per artifact, plus a summary index.
//
// Usage:
//
//	figures [-dir results] [-universe 131072] [-seed 0] [-k 1000] [-store DIR] [-snapshot FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// The flag defaults, the settings the committed results/ are generated with.
const (
	defaultUniverse  = 1 << 17
	defaultK         = 1000
	defaultGranCalls = 80000
)

func main() {
	var (
		dir       = flag.String("dir", "results", "output directory")
		universe  = flag.Int("universe", defaultUniverse, "simulated users per platform")
		seed      = flag.Uint64("seed", 0, "deployment seed")
		k         = flag.Int("k", defaultK, "compositions per discovered set")
		granCalls = flag.Int("granularity-calls", defaultGranCalls, "distinct calls for the granularity study")
		storeDir  = flag.String("store", "", "durable measurement store directory; a re-run over it replays persisted measurements from disk")
		snapPath  = flag.String("snapshot", "", "load the deployment from this snapshot file (internal/snapshot) instead of building it")
	)
	flag.Parse()
	if err := run(*dir, *universe, *seed, *k, *granCalls, *storeDir, *snapPath); err != nil {
		log.Fatalf("figures: %v", err)
	}
}

func run(dir string, universe int, seed uint64, k, granCalls int, storeDir, snapPath string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var d *platform.Deployment
	if snapPath != "" {
		dep, info, err := snapshot.LoadDeployment(snapPath, platform.DeployOptions{Seed: seed, UniverseSize: universe})
		if err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
		log.Printf("loaded snapshot %s (content %.12s, built %s)",
			snapPath, info.ContentHash, info.CreatedAt.Format(time.RFC3339))
		d = dep
	} else {
		log.Printf("building deployment (universe=%d, seed=%d)", universe, seed)
		dep, err := platform.NewDeployment(platform.DeployOptions{Seed: seed, UniverseSize: universe})
		if err != nil {
			return err
		}
		d = dep
	}
	cfg := experiments.Config{Deployment: d, K: k, Seed: seed + 1}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		defer func() {
			stats := st.Stats()
			if err := st.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
			log.Printf("store: %d measurements persisted (%d appended this run)", stats.Records, stats.Appends)
		}()
		if n := st.Len(); n > 0 {
			log.Printf("store %s holds %d measurements; replaying them from disk", st.Dir(), n)
		}
		cfg.Store = st
	}
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}

	write := func(name string, fn func(f *os.File) error) error {
		start := time.Now()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s in %v", path, time.Since(start))
		return nil
	}

	steps := []struct {
		file string
		fn   func(f *os.File) error
	}{
		{"methodology.txt", func(f *os.File) error {
			rows, err := r.Methodology(experiments.MethodologyConfig{GranularityCalls: granCalls})
			if err != nil {
				return err
			}
			return experiments.RenderMethodology(f, rows)
		}},
		{"rounding_bounds.txt", func(f *os.File) error {
			rows, err := r.RoundingBounds(core.GenderClass(population.Male))
			if err != nil {
				return err
			}
			return experiments.RenderRoundingBounds(f, rows)
		}},
		{"figure1.txt", func(f *os.File) error {
			rows, err := r.Figure1()
			if err != nil {
				return err
			}
			return experiments.RenderBoxRows(f, "Figure 1: rep ratios on Facebook's restricted interface", rows)
		}},
		{"figure2.txt", func(f *os.File) error {
			rows, err := r.Figure2()
			if err != nil {
				return err
			}
			return experiments.RenderBoxRows(f, "Figure 2: rep ratios on Facebook, Google, LinkedIn", rows)
		}},
		{"figure3.txt", func(f *os.File) error {
			series, err := r.Figure3()
			if err != nil {
				return err
			}
			return experiments.RenderRemovalSeries(f, "Figure 3: removal sweep (gender)", series)
		}},
		{"figure4.txt", func(f *os.File) error {
			rows, err := r.Figure4()
			if err != nil {
				return err
			}
			return experiments.RenderBoxRows(f, "Figure 4: rep ratios across age ranges", rows)
		}},
		{"figure5.txt", func(f *os.File) error {
			rows, err := r.Figure5()
			if err != nil {
				return err
			}
			return experiments.RenderRecallRows(f, "Figure 5: recalls of skewed targetings", rows)
		}},
		{"figure6.txt", func(f *os.File) error {
			series, err := r.Figure6()
			if err != nil {
				return err
			}
			return experiments.RenderRemovalSeries(f, "Figure 6: removal sweeps across age ranges", series)
		}},
		{"table1.txt", func(f *os.File) error {
			rows, err := r.Table1()
			if err != nil {
				return err
			}
			return experiments.RenderTable1(f, rows)
		}},
		{"table2.txt", func(f *os.File) error {
			rows, err := r.Table2(5)
			if err != nil {
				return err
			}
			return experiments.RenderExamples(f, "Table 2: illustrative gender-skewed compositions", rows)
		}},
		{"table3.txt", func(f *os.File) error {
			rows, err := r.Table3(5)
			if err != nil {
				return err
			}
			return experiments.RenderExamples(f, "Table 3: illustrative age-skewed compositions", rows)
		}},
		{"ext_lookalike.txt", func(f *os.File) error {
			rows, err := r.LookalikeStudy(core.GenderClass(population.Male), 0, 0)
			if err != nil {
				return err
			}
			return experiments.RenderLookalikeRows(f, rows)
		}},
		{"ext_mitigation.txt", func(f *os.File) error {
			rows, err := r.MitigationStudy(core.GenderClass(population.Male), mitigation.EvalConfig{})
			if err != nil {
				return err
			}
			return experiments.RenderMitigationRows(f, rows)
		}},
		{"ext_delivery.txt", func(f *os.File) error {
			rows, err := r.DeliveryStudy()
			if err != nil {
				return err
			}
			return experiments.RenderDeliveryRows(f, rows)
		}},
		{"ext_retargeting.txt", func(f *os.File) error {
			rows, err := r.RetargetingStudy(core.GenderClass(population.Male))
			if err != nil {
				return err
			}
			return experiments.RenderRetargetingRows(f, rows)
		}},
		{"REPORT.md", func(f *os.File) error {
			rep, err := r.BuildReport()
			if err != nil {
				return err
			}
			return experiments.WriteReportMarkdown(f, rep)
		}},
	}
	// metrics.txt accumulates one snapshot section per artifact: the obs
	// registry's state right after that experiment, so the query cost and
	// phase timing of each figure is attributable from the results
	// directory alone.
	metricsPath := filepath.Join(dir, "metrics.txt")
	mf, err := os.Create(metricsPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	for _, s := range steps {
		if err := write(s.file, s.fn); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(mf, "== metrics after %s ==\n", s.file); err != nil {
			return err
		}
		if err := obs.Default().WriteText(mf); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(mf); err != nil {
			return err
		}
	}
	log.Printf("all artifacts written to %s (metrics snapshots in %s)", dir, metricsPath)
	return nil
}
