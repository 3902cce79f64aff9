// Command auditbench times the paper's fig1+fig2 audit campaign (K = 1,000
// compositions per set) through three deployment shapes and checks that
// every shape returns byte-identical rows. perfbench/run.py builds it and
// is the entry point; README.md beside it explains the workloads and
// metrics.
//
//	auditbench run  -workload inproc|http|cluster3-snap -seed N -seconds S -trace 0|1 ...
//	auditbench pool -out F       (records the campaign specs the battery is drawn from)
//	auditbench prep -dir D       (writes the cluster3-snap shard snapshots)
//	auditbench boot -snapdir D -seed N  (times one cluster3-snap boot and cold campaign)
//
// A run prints one JSON object as its last line of standard output. Any
// failed output check exits non-zero without printing it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xrand"
)

// defaultUniverse is the per-platform user count every workload builds.
const defaultUniverse = 1 << 17

// defaultSeed is the workload seed the committed reference digests pin.
const defaultSeed = 7

// deploySeed is the seed of every workload's deployment (universes and
// catalogs): the platform's default. It is fixed rather than drawn from the
// workload seed so that every seed audits the same deployment, whose work
// then varies only with the composition sampling and the battery, and so
// that cluster3-snap's shard snapshots are written once per build.
const deploySeed = 20201027

// seeds are the per-purpose seeds derived from one workload seed: the
// campaign's composition sampling and the single-query battery.
type seeds struct {
	campaign, battery uint64
}

func deriveSeeds(s uint64) seeds {
	return seeds{
		campaign: xrand.Mix(s, 0xca4a),
		battery:  xrand.Mix(s, 0xba77),
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: auditbench run|pool|prep|boot [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = mainRun(os.Args[2:])
	case "pool":
		err = mainPool(os.Args[2:])
	case "prep":
		err = mainPrep(os.Args[2:])
	case "boot":
		err = mainBoot(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditbench:", err)
		os.Exit(1)
	}
}

func mainRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cfg runConfig
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "inproc, http or cluster3-snap")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 32, "run length on the reference host; sets the number of repeat campaigns")
	fs.IntVar(&traced, "trace", 0, "1 wraps the layer boundaries and prints the per-layer table")
	fs.StringVar(&cfg.pool, "pool", "", "query pool written by auditbench pool")
	fs.StringVar(&cfg.snapDir, "snapdir", "", "directory holding the cluster3-snap shard snapshots")
	fs.StringVar(&cfg.records, "records", "", "directory of per-seed output fingerprints shared by runs of one build")
	fs.StringVar(&cfg.reference, "reference", "", "committed reference fingerprints")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	cfg.traced = traced == 1
	cfg.universe = defaultUniverse
	if trace.Default() != nil {
		// The trace-context doors would change the call path under test.
		return errors.New("process tracer must be disabled")
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func mainPool(args []string) error {
	fs := flag.NewFlagSet("pool", flag.ContinueOnError)
	out := fs.String("out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("pool needs -out")
	}
	start := time.Now()
	if err := writePool(*out, defaultUniverse); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "auditbench: query pool written in %.1fs\n", time.Since(start).Seconds())
	return nil
}

func mainPrep(args []string) error {
	fs := flag.NewFlagSet("prep", flag.ContinueOnError)
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("prep needs -dir")
	}
	start := time.Now()
	if err := prepSnapshots(*dir, defaultUniverse); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "auditbench: shard snapshots written in %.1fs\n", time.Since(start).Seconds())
	return nil
}

func mainBoot(args []string) error {
	fs := flag.NewFlagSet("boot", flag.ContinueOnError)
	universe := fs.Int("universe", defaultUniverse, "users per platform (the parent run's)")
	dir := fs.String("snapdir", "", "directory holding the shard snapshots")
	seed := fs.Uint64("seed", 0, "campaign seed (the parent run's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	start, cpu0 := time.Now(), cpuTime()
	s, err := setupCluster(*universe, *dir, reg, nil)
	if err != nil {
		return err
	}
	b := bootReport{SetupWall: time.Since(start).Seconds(), SetupCPU: (cpuTime() - cpu0).Seconds()}
	c, err := measureCampaign(s, reg, nil, *seed, false)
	if err != nil {
		_ = s.close() // the campaign error is the one to report
		return err
	}
	b.Wall, b.CPU, b.Rows = c.wall.Seconds(), c.cpu.Seconds(), c.rows
	b.Queries, b.Hits, b.Exchanges, b.Failed = c.queries, c.hits, c.exchanges, c.failed
	line, err := json.Marshal(b)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return s.close()
}
