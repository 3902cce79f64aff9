// Command figures regenerates every table and figure of the paper into a
// results directory: each phase of the experiments package's phase table
// into the results file the table names, then the REPORT.md claims
// checklist.
//
// Usage:
//
//	figures [-dir results] [-universe 131072] [-seed 0] [-k 1000] [-granularity-calls 80000] [-store DIR] [-snapshot FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/shapes"
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

// run opens the deployment, built or loaded from snapPath, and writes every
// artifact from it into dir.
func run(dir string, universe int, seed uint64, k, granCalls int, storeDir, snapPath string) error {
	d, info, err := shapes.Open(snapPath, platform.DeployOptions{Seed: seed, UniverseSize: universe})
	if err != nil {
		return err
	}
	if info != nil {
		log.Printf("loaded snapshot %s (content %.12s, built %s)",
			snapPath, info.ContentHash, info.CreatedAt.Format(time.RFC3339))
	} else {
		log.Printf("built deployment (universe=%d, seed=%d)", universe, seed)
	}
	return write(dir, d, seed, k, granCalls, storeDir)
}

// write runs every phase of the experiments package's phase table on d,
// then the claims report, into dir.
func write(dir string, d *platform.Deployment, seed uint64, k, granCalls int, storeDir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
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
	// artifact renders one artifact into dir and appends its metrics
	// section; the logged time runs from start, which precedes its run.
	artifact := func(file string, start time.Time, render func(io.Writer) error) error {
		path := filepath.Join(dir, file)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s in %v", path, time.Since(start))
		if _, err := fmt.Fprintf(mf, "== metrics after %s ==\n", file); err != nil {
			return err
		}
		if err := obs.Default().WriteText(mf); err != nil {
			return err
		}
		_, err = fmt.Fprintln(mf)
		return err
	}

	names, err := experiments.ExpandExperiments([]string{"all"}, false)
	if err != nil {
		return err
	}
	for _, name := range names {
		start := time.Now()
		res, err := r.RunExperiment(name, experiments.PhaseOptions{GranularityCalls: granCalls})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := artifact(res.File, start, res.Render); err != nil {
			return err
		}
	}
	start := time.Now()
	rep, err := r.BuildReport()
	if err != nil {
		return fmt.Errorf("REPORT.md: %w", err)
	}
	if err := artifact("REPORT.md", start, func(w io.Writer) error { return experiments.WriteReportMarkdown(w, rep) }); err != nil {
		return err
	}
	log.Printf("all artifacts written to %s (metrics snapshots in %s)", dir, metricsPath)
	return nil
}
