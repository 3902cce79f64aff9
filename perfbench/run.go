package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/targeting"
)

// nominalCost is each workload's cost on the reference host (2 vCPUs), in
// seconds: its set-ups with their cold campaigns, and one repeat campaign.
// -seconds sets a run's repeat-campaign count from it, so that the count
// is fixed and a busy host lengthens a run instead of thinning its
// samples.
var nominalCost = map[string]struct{ setUp, repeat float64 }{
	"inproc":        {21, 1.25},
	"http":          {28, 5},
	"cluster3-snap": {16, 4.5},
}

const (
	// minRepeats is the fewest repeat campaigns an untraced run makes.
	minRepeats = 3
	// tracedPairs is how many untraced/traced repeat-campaign pairs a
	// traced run alternates to measure the wrappers' overhead.
	tracedPairs = 2
	// builtSetups is how often an untraced inproc or http run builds and
	// warms its deployment, running one cold campaign on each: setup_s and
	// audit_s are the medians.
	builtSetups = 2
	// clusterBoots is how many extra times an untraced cluster3-snap run
	// boots the cluster and runs a cold campaign on it, each in a child
	// process because a loaded snapshot stays mapped (and resident) until
	// its process exits. setup_s and audit_s are the medians over those
	// boots and the measured process's own.
	clusterBoots = 2
)

// repeatCount is how many repeat campaigns an untraced run makes: as many
// as the reference host completes in -seconds after the workload's
// set-ups, and at least minRepeats.
func repeatCount(workload string, seconds float64) int {
	c := nominalCost[workload]
	return max(minRepeats, int((seconds-c.setUp)/c.repeat))
}

type runConfig struct {
	workload                          string
	seed                              uint64
	seconds                           float64
	traced                            bool
	universe                          int
	pool, snapDir, records, reference string
}

// campaign is one timed fig1+fig2 campaign by a fresh Runner.
type campaign struct {
	// wall is the campaign's elapsed time; cpu is the CPU time (user and
	// system, every thread) the process spent in it, which excludes time
	// the host stole from the vCPUs.
	wall, cpu time.Duration
	rows      string
	// Traffic under core's measurement cache, from core.StatsOf.
	queries, hits, exchanges, failed int64

	// Traced campaigns only.
	traced   bool
	tally    tally
	largest  map[string][]targeting.Spec
	counters map[string]int64
	allocMB  float64
	gcs      int64
	faults   int64
}

// runCampaign runs fig1 and fig2 through providers with a fresh Runner,
// so core's measurement cache starts empty.
func runCampaign(providers []core.Provider, seed uint64) (campaign, error) {
	var c campaign
	start, cpu0, st0 := time.Now(), cpuTime(), stealTime()
	r, err := experiments.NewRunner(experiments.Config{Providers: providers, Seed: seed, Metrics: obs.NewRegistry()})
	if err != nil {
		return c, err
	}
	var rows []any
	for _, name := range []string{"fig1", "fig2"} {
		res, err := r.RunExperiment(name, experiments.PhaseOptions{})
		if err != nil {
			return c, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, res.Rows)
	}
	c.wall, c.cpu = time.Since(start), cpuTime()-cpu0
	fmt.Fprintf(os.Stderr, "auditbench: campaign wall %.3fs cpu %.3fs host steal %.2fs\n",
		c.wall.Seconds(), c.cpu.Seconds(), (stealTime() - st0).Seconds())
	data, err := json.Marshal(rows)
	if err != nil {
		return c, err
	}
	sum := sha256.Sum256(data)
	c.rows = hex.EncodeToString(sum[:])
	for _, name := range r.PlatformNames() {
		a, err := r.Auditor(name)
		if err != nil {
			return c, err
		}
		st, ok := core.StatsOf(a.Provider())
		if !ok {
			return c, fmt.Errorf("%s: auditor has no measurement cache", name)
		}
		c.queries += st.Misses
		c.hits += st.Hits
		c.exchanges += st.Upstream.Count
		// Failed upstream calls are refunded from the call count.
		c.failed += st.Misses - core.UpstreamCalls(a.Provider())
	}
	return c, nil
}

// registryCounters are the obs counters the per-layer table reports,
// summed over their label sets.
var registryCounters = []string{
	"plans_compiled_total",
	"plan_cache_misses_total",
	"plan_cache_rebuilds_total",
	"batch_kernel_blocks_total",
	"cluster_failovers_total",
}

func sumCounters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(registryCounters))
	for _, s := range reg.Gather() {
		for _, name := range registryCounters {
			if s.Name == name {
				out[name] += int64(s.Value)
			}
		}
	}
	return out
}

// cpuTime is the process's CPU time so far. The guest kernel accounts
// paravirtual steal time, so time the host withholds from a vCPU is not
// charged to the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the steal time /proc/stat reports over all vCPUs (in
// 10 ms ticks); run logs it beside each campaign.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(v) * 10 * time.Millisecond
}

func faultCount() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt + ru.Majflt
}

// measureCampaign runs one campaign from a collected heap; a traced one
// goes through the taps and records the layer tallies and process deltas.
func measureCampaign(s *shape, reg *obs.Registry, l *layers, seed uint64, traced bool) (campaign, error) {
	runtime.GC()
	if !traced {
		return runCampaign(s.providers, seed)
	}
	providers := make([]core.Provider, len(s.providers))
	for i, p := range s.providers {
		providers[i] = l.provider(p)
	}
	before := sumCounters(reg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := faultCount()
	l.start()
	c, err := runCampaign(providers, seed)
	c.tally, c.largest = l.stop()
	if err != nil {
		return c, err
	}
	c.faults = faultCount() - f0
	runtime.ReadMemStats(&m1)
	c.traced = true
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	c.gcs = int64(m1.NumGC - m0.NumGC)
	c.counters = sumCounters(reg)
	for k, v := range before {
		c.counters[k] -= v
	}
	switch {
	case l.overlaps > 0:
		return c, errors.New("upstream calls overlapped; scatter critical paths are undefined")
	case c.tally.upSpecs != c.queries || c.tally.upCalls != c.exchanges || c.tally.upErrors != c.failed:
		return c, fmt.Errorf("taps saw %d specs (%d failed) in %d calls, core counted %d (%d failed) in %d exchanges",
			c.tally.upSpecs, c.tally.upErrors, c.tally.upCalls, c.queries, c.failed, c.exchanges)
	}
	return c, nil
}

func medianCPU(cs []campaign) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = c.cpu.Seconds()
	}
	return median(v)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func run(cfg runConfig) (result, error) {
	var res result
	sd := deriveSeeds(cfg.seed)
	var l *layers
	if cfg.traced {
		l = &layers{}
	}

	setups, boots := 1, 0
	repeats := 2 * tracedPairs
	if !cfg.traced {
		repeats = repeatCount(cfg.workload, cfg.seconds)
		if cfg.workload == "cluster3-snap" {
			boots = clusterBoots
		} else {
			setups = builtSetups
		}
	}
	var setupS []float64
	var colds, warm, warmTraced []campaign
	boot := func() error {
		b, err := bootChild(cfg, sd.campaign)
		if err != nil {
			return err
		}
		logSetup(b.SetupWall, b.SetupCPU)
		setupS = append(setupS, b.SetupCPU)
		colds = append(colds, b.campaign())
		return nil
	}
	var s *shape
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var bat *battery
	// Each deployment runs its cold campaign and then its share of the
	// repeat campaigns, and cluster3-snap's child boots sit between repeat
	// campaigns, so that every metric samples the whole run: a shared
	// host's speed drifts within a run.
	for i := 0; i < setups; i++ {
		if s != nil {
			// Drop the previous deployment before building the next.
			err := s.close()
			s = nil
			if err != nil {
				return res, err
			}
			runtime.GC()
		}
		reg := obs.NewRegistry()
		start, cpu0 := time.Now(), cpuTime()
		var err error
		if s, err = setupShape(cfg.workload, cfg.universe, cfg.snapDir, reg, l); err != nil {
			return res, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		wall, cpu := time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds()
		logSetup(wall, cpu)
		setupS = append(setupS, cpu)
		if bat == nil {
			qs, err := loadBattery(cfg.pool, s.providers, sd.battery)
			if err != nil {
				return res, fmt.Errorf("battery: %w", err)
			}
			bat = &battery{qs: qs}
		}
		// The first campaign on a new deployment meets cold plan, union and
		// schedule caches.
		c, err := measureCampaign(s, reg, l, sd.campaign, cfg.traced)
		if err != nil {
			return res, fmt.Errorf("campaign: %w", err)
		}
		colds = append(colds, c)
		if err := bat.step(s.measure); err != nil {
			return res, err
		}
		// Repeat campaigns by fresh Runners on the warm deployment; a traced
		// run alternates untraced and traced ones.
		for k := repeats * i / setups; k < repeats*(i+1)/setups; k++ {
			c, err := measureCampaign(s, reg, l, sd.campaign, cfg.traced && k%2 == 1)
			if err != nil {
				return res, fmt.Errorf("repeat campaign: %w", err)
			}
			if c.traced {
				warmTraced = append(warmTraced, c)
			} else {
				warm = append(warm, c)
			}
			if err := bat.step(s.measure); err != nil {
				return res, err
			}
			if k < boots {
				if err := boot(); err != nil {
					return res, err
				}
			}
		}
	}
	for k := repeats; k < boots; k++ {
		if err := boot(); err != nil {
			return res, err
		}
	}
	// The measured process's own cold campaign: child boots append theirs
	// after it.
	cold := colds[0]
	all := append(append(append([]campaign(nil), colds...), warm...), warmTraced...)

	qr, err := bat.finish(s.measure)
	if err != nil {
		return res, err
	}

	// Output checks: every campaign of the run reproduces the same rows and
	// traffic, and the run reproduces the committed reference and what
	// earlier runs of this build recorded for the seed.
	for _, c := range all {
		res.Attempted += c.queries
		res.Failed += c.failed
		if c.rows != cold.rows || c.queries != cold.queries || c.hits != cold.hits || c.exchanges != cold.exchanges {
			return res, fmt.Errorf("campaigns of one run disagree: rows %.16s vs %.16s, counts %d/%d/%d vs %d/%d/%d",
				c.rows, cold.rows, c.queries, c.hits, c.exchanges, cold.queries, cold.hits, cold.exchanges)
		}
	}
	res.Attempted += qr.count
	res.Failed += qr.failed
	fp := fingerprint{
		Universe:          cfg.universe,
		Seed:              cfg.seed,
		Rows:              cold.rows,
		Battery:           qr.digest,
		UpstreamQueries:   cold.queries,
		CacheHits:         cold.hits,
		UpstreamExchanges: cold.exchanges,
	}
	if err := checkReference(cfg.reference, fp); err != nil {
		return res, err
	}
	if err := checkRecord(cfg.records, cfg.workload, fp); err != nil {
		return res, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}

	m := map[string]metric{}
	if !cfg.traced {
		m["setup_s"] = metric{median(setupS), "s"}
		m["audit_s"] = metric{medianCPU(colds), "s"}
		m["reaudit_s"] = metric{medianCPU(warm), "s"}
		m["query_p50_us"] = metric{us(qr.p50), "us"}
		m["peak_rss_mb"] = metric{rss, "MB"}
	} else {
		if err := layerTable(m, cfg.workload, s, cold, warm, warmTraced, qr); err != nil {
			return res, err
		}
	}
	res.Correct = true
	res.Metrics = m
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func logSetup(wall, cpu float64) {
	fmt.Fprintf(os.Stderr, "auditbench: set-up wall %.3fs cpu %.3fs\n", wall, cpu)
}

// bootReport is what a child boot prints: its set-up times and its cold
// campaign.
type bootReport struct {
	SetupWall float64 `json:"setup_wall_s"`
	SetupCPU  float64 `json:"setup_cpu_s"`
	Wall      float64 `json:"wall_s"`
	CPU       float64 `json:"cpu_s"`
	Rows      string  `json:"rows_sha256"`
	Queries   int64   `json:"upstream_queries"`
	Hits      int64   `json:"cache_hits"`
	Exchanges int64   `json:"upstream_exchanges"`
	Failed    int64   `json:"failed"`
}

func (b bootReport) campaign() campaign {
	return campaign{
		wall:      time.Duration(b.Wall * float64(time.Second)),
		cpu:       time.Duration(b.CPU * float64(time.Second)),
		rows:      b.Rows,
		queries:   b.Queries,
		hits:      b.Hits,
		exchanges: b.Exchanges,
		failed:    b.Failed,
	}
}

// bootChild boots cluster3-snap in a child process, which runs one cold
// campaign with the campaign seed and reports it.
func bootChild(cfg runConfig, campaignSeed uint64) (bootReport, error) {
	var b bootReport
	exe, err := os.Executable()
	if err != nil {
		return b, err
	}
	cmd := exec.Command(exe, "boot", "-universe", strconv.Itoa(cfg.universe), "-snapdir", cfg.snapDir,
		"-seed", strconv.FormatUint(campaignSeed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return b, fmt.Errorf("boot: %w", err)
	}
	if err := json.Unmarshal(out, &b); err != nil {
		return b, fmt.Errorf("boot printed %q: %w", out, err)
	}
	return b, nil
}
