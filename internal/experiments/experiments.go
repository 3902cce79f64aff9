// Package experiments reproduces every table and figure of the paper's
// evaluation. Each Figure*/Table* function runs the corresponding
// experiment against a simulated deployment and returns the same rows or
// series the paper reports; cmd/figures renders them to files and
// bench_test.go regenerates them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/stats"
)

// Set names as the paper's figure axes label them.
const (
	SetIndividual = "Individual"
	SetRandom2    = "Random 2-way"
	SetTop2       = "Top 2-way"
	SetBottom2    = "Bottom 2-way"
	SetTop3       = "Top 3-way"
	SetBottom3    = "Bottom 3-way"
	SetIndSkewed  = "Ind. skewed"
)

// Config parameterizes an experiment run. Zero values select the paper's
// parameters scaled to the deployment at hand.
type Config struct {
	// Deployment is the simulated testbed. Exactly one of Deployment and
	// Providers must be set.
	Deployment *platform.Deployment
	// Providers supplies the platforms directly (e.g. adapi clients
	// auditing a remote platformd), in presentation order.
	Providers []core.Provider
	// K is the number of compositions per discovered set (paper: 1,000).
	K int
	// OverlapTopN is how many top compositions enter the overlap analysis
	// (paper: 100).
	OverlapTopN int
	// OverlapMaxPairs caps measured overlap pairs per analysis.
	OverlapMaxPairs int
	// UnionTopN is how many top compositions enter the union-recall
	// analysis (paper: 10).
	UnionTopN int
	// UnionMaxOrder bounds the inclusion–exclusion depth (0 = full).
	UnionMaxOrder int
	// RemovalSteps are the removal percentiles of Figures 3 and 6.
	RemovalSteps []float64
	// Seed drives all sampling.
	Seed uint64
	// Store, when set, backs every platform's measurement cache with a
	// durable archive (internal/store): measurements already persisted by
	// an earlier — possibly killed — run are served from disk without an
	// upstream query or a budget charge, and phase-completion checkpoints
	// (MarkPhaseComplete) survive restarts. Because every experiment is
	// deterministic in (Seed, K, ...), re-running over the same store
	// replays identical specs and yields identical rows while paying only
	// for the measurements the interrupted run never reached.
	Store core.MeasurementStore
	// Metrics receives phase timings and audit counters; nil selects the
	// process-wide obs.Default() registry.
	Metrics *obs.Registry
	// Progress, when set, receives live audit progress from every
	// platform's fan-out scans: the platform name, specs completed, and
	// the batch total. It is called from the goroutine running the
	// experiment, done = 1, 2, …, total within each batch; after Context
	// is cancelled no further callbacks are delivered.
	Progress func(platform string, done, total int)
	// Context, when set, cancels the run: once done, every auditor fails
	// fast with the context's error instead of issuing further
	// measurements, and progress callbacks stop. The async job service
	// (internal/jobs) drives cancellation and crash-safe shutdown through
	// this, and adauditctl threads its signal context here so an
	// interrupted -store run exits at a clean measurement boundary.
	Context context.Context
}

// withDefaults fills the paper's parameters.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 1000
	}
	if c.OverlapTopN == 0 {
		c.OverlapTopN = 100
	}
	if c.OverlapMaxPairs == 0 {
		c.OverlapMaxPairs = 600
	}
	if c.UnionTopN == 0 {
		c.UnionTopN = 10
	}
	if c.UnionMaxOrder == 0 {
		c.UnionMaxOrder = 10
	}
	if c.RemovalSteps == nil {
		c.RemovalSteps = []float64{0, 2, 4, 6, 8, 10}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner caches auditors and per-class individual scans across experiments,
// the way the paper reused its crawled measurements across analyses.
type Runner struct {
	cfg         Config
	order       []string
	auditors    map[string]*core.Auditor
	individuals map[string]map[string][]core.Measurement
	metrics     *obs.Registry
}

// NewRunner prepares a runner over the deployment or provider set in cfg.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	var providers []core.Provider
	switch {
	case cfg.Deployment != nil && cfg.Providers != nil:
		return nil, fmt.Errorf("experiments: set exactly one of Deployment and Providers")
	case cfg.Deployment != nil:
		providers = core.PlatformProviders(cfg.Deployment)
	case len(cfg.Providers) > 0:
		providers = cfg.Providers
	default:
		return nil, fmt.Errorf("experiments: Config.Deployment or Config.Providers is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	r := &Runner{
		cfg:         cfg,
		auditors:    make(map[string]*core.Auditor),
		individuals: make(map[string]map[string][]core.Measurement),
		metrics:     reg,
	}
	for _, p := range providers {
		if _, dup := r.auditors[p.Name()]; dup {
			return nil, fmt.Errorf("experiments: duplicate provider %q", p.Name())
		}
		r.order = append(r.order, p.Name())
		if cfg.Store != nil {
			// Durable tier under the in-memory cache: a resumed campaign
			// pays upstream only for what the previous run never fsynced.
			p = core.NewStoredProviderWith(p, cfg.Store, reg)
		}
		a := core.NewAuditorWith(p, reg)
		a.Ctx = cfg.Context
		if cfg.Progress != nil {
			name := p.Name()
			ctx := cfg.Context
			a.Progress = func(done, total int) {
				// Belt over the auditor's own suppression: a cancelled run
				// delivers no further progress even from paths that only
				// consult the callback.
				if ctx != nil && ctx.Err() != nil {
					return
				}
				cfg.Progress(name, done, total)
			}
		}
		r.auditors[p.Name()] = a
	}
	if cfg.Deployment != nil {
		// Materialize every catalog audience up front (each Warm fans out
		// internally) so the first figure's latency is not dominated by
		// lazy materialization.
		var wg sync.WaitGroup
		for _, p := range cfg.Deployment.Interfaces() {
			wg.Add(1)
			go func(p *platform.Interface) {
				defer wg.Done()
				p.Warm()
			}(p)
		}
		wg.Wait()
	}
	return r, nil
}

// track times one experiment phase: `defer r.track("fig1")()` records the
// wall-clock into experiment_phase_seconds{phase="fig1"} and counts the
// completion, so a run's per-phase cost shows up in /metrics and in
// adauditctl's -metrics summary.
func (r *Runner) track(phase string) func() {
	start := time.Now()
	return func() {
		r.metrics.Gauge("experiment_phase_seconds", obs.L("phase", phase)).Set(time.Since(start).Seconds())
		r.metrics.Counter("experiment_phases_total").Inc()
	}
}

// PhaseSeconds reports the last recorded wall-clock of a phase (0 when the
// phase has not run).
func (r *Runner) PhaseSeconds(phase string) float64 {
	return r.metrics.GaugeValue("experiment_phase_seconds", obs.L("phase", phase))
}

// checkpointQualifier namespaces phase-completion checkpoints inside the
// measurement store. The leading NUL byte keeps it disjoint from every real
// platform interface name, so checkpoints can never collide with a
// measurement record.
const checkpointQualifier = "\x00experiments/phase-complete"

// MarkPhaseComplete durably checkpoints that the named phase finished. A
// driver (adauditctl) calls it after an experiment succeeds so a resumed
// campaign can report — and, if its operator chooses, skip — work that
// already completed. It is a no-op without a configured store.
func (r *Runner) MarkPhaseComplete(phase string) error {
	if r.cfg.Store == nil {
		return nil
	}
	return r.cfg.Store.PutMeasurement(checkpointQualifier, phase, 1)
}

// PhaseCompleted reports whether a phase-completion checkpoint is
// persisted (always false without a store).
func (r *Runner) PhaseCompleted(phase string) bool {
	if r.cfg.Store == nil {
		return false
	}
	_, ok := r.cfg.Store.GetMeasurement(checkpointQualifier, phase)
	return ok
}

// CompletedPhases returns the subset of names whose completion checkpoints
// are persisted, in the given order.
func (r *Runner) CompletedPhases(names ...string) []string {
	var out []string
	for _, name := range names {
		if r.PhaseCompleted(name) {
			out = append(out, name)
		}
	}
	return out
}

// PlatformNames returns the platform interface names in presentation order.
func (r *Runner) PlatformNames() []string {
	return append([]string(nil), r.order...)
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// Auditor returns the auditor for a platform interface name.
func (r *Runner) Auditor(name string) (*core.Auditor, error) {
	a, ok := r.auditors[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown platform %q", name)
	}
	return a, nil
}

// Individuals returns (computing once) the individual-option scan for a
// platform and class.
func (r *Runner) Individuals(name string, c core.Class) ([]core.Measurement, error) {
	base := c
	base.Excluded = false // scans are shared between s and ¬s
	key := base.String()
	if byClass, ok := r.individuals[name]; ok {
		if ms, ok := byClass[key]; ok {
			return ms, nil
		}
	} else {
		r.individuals[name] = make(map[string][]core.Measurement)
	}
	a, err := r.Auditor(name)
	if err != nil {
		return nil, err
	}
	ms, err := a.Individuals(base)
	if err != nil {
		return nil, fmt.Errorf("individual scan on %s for %s: %w", name, c, err)
	}
	r.individuals[name][key] = ms
	return ms, nil
}

// individualsFor re-audits the shared scan under an excluded class when
// needed (rep ratios invert; recalls flip to the complement).
func (r *Runner) individualsFor(name string, c core.Class) ([]core.Measurement, error) {
	ms, err := r.Individuals(name, c)
	if err != nil {
		return nil, err
	}
	if !c.Excluded {
		return ms, nil
	}
	a, err := r.Auditor(name)
	if err != nil {
		return nil, err
	}
	out := make([]core.Measurement, 0, len(ms))
	for _, m := range ms {
		mm, err := a.Audit(m.Spec, c) // served from the measurement cache
		if err != nil {
			continue
		}
		out = append(out, mm)
	}
	return out, nil
}

// BoxRow is one box of a representation-ratio box plot (Figures 1, 2, 4).
type BoxRow struct {
	Platform string
	Set      string
	Class    string
	Box      stats.Box
	// FracOutside is the fraction of the set outside the four-fifths
	// bounds (paper §4.3: "over 90 percent of these falling outside").
	FracOutside float64
	// Infinite counts measurements whose ratio was unbounded (one side
	// rounded to zero); they are excluded from Box.
	Infinite int
}

// boxRow summarizes one measurement set.
func boxRow(platformName, set string, c core.Class, ms []core.Measurement) (BoxRow, error) {
	ratios := core.RepRatios(ms)
	row := BoxRow{Platform: platformName, Set: set, Class: c.String(), Infinite: len(ms) - len(ratios)}
	if len(ratios) == 0 {
		return row, nil
	}
	b, err := stats.NewBox(ratios)
	if err != nil {
		return row, err
	}
	row.Box = b
	frac, err := stats.FractionOutside(ratios, core.FourFifthsLow, core.FourFifthsHigh)
	if err != nil {
		return row, err
	}
	row.FracOutside = frac
	return row, nil
}

// classMale returns the male class (Figures 1–3 headline panels).
func classMale() core.Class { return core.GenderClass(population.Male) }

// classYoung returns the 18-24 class.
func classYoung() core.Class { return core.AgeClass(population.Age18to24) }
