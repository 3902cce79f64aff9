// Package repro_test hosts the benchmark harness: one benchmark per table
// and figure of the paper's evaluation, plus ablation benches for the
// design decisions called out in DESIGN.md §4. The benchmarks report the
// headline statistic of each artifact via b.ReportMetric so a -bench run
// doubles as a compact reproduction summary.
//
// Benchmarks run on a shared scaled-down deployment (the full-scale run is
// cmd/figures); the shapes — composition amplifies skew, 3-way beats 2-way,
// removal is insufficient, unions beat top-1 — are scale-free.
package repro_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mitigation"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/stats"
	"repro/internal/targeting"
)

// benchUniverse sizes the shared benchmark deployment.
const benchUniverse = 1 << 15

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchErr    error
)

// runner returns the shared benchmark runner, building it on first use.
func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		var d *platform.Deployment
		d, benchErr = platform.NewDeployment(platform.DeployOptions{Seed: 101, UniverseSize: benchUniverse})
		if benchErr != nil {
			return
		}
		benchRunner, benchErr = experiments.NewRunner(experiments.Config{
			Deployment:      d,
			K:               250,
			OverlapTopN:     20,
			OverlapMaxPairs: 60,
			UnionTopN:       8,
			UnionMaxOrder:   3,
			RemovalSteps:    []float64{0, 2, 4, 6, 8, 10},
			Seed:            5,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRunner
}

// findBox locates one box row.
func findBox(rows []experiments.BoxRow, platformName, set, class string) (experiments.BoxRow, bool) {
	for _, r := range rows {
		if r.Platform == platformName && r.Set == set && r.Class == class {
			return r, true
		}
	}
	return experiments.BoxRow{}, false
}

// BenchmarkFigure1 regenerates Figure 1 (Facebook's restricted interface)
// and reports the Individual and Top-2-way 90th-percentile rep ratios
// toward males (paper: 1.84 and 8.98).
func BenchmarkFigure1(b *testing.B) {
	r := runner(b)
	var rows []experiments.BoxRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	ind, _ := findBox(rows, catalog.PlatformFacebookRestricted, experiments.SetIndividual, "male")
	top, _ := findBox(rows, catalog.PlatformFacebookRestricted, experiments.SetTop2, "male")
	top3, _ := findBox(rows, catalog.PlatformFacebookRestricted, experiments.SetTop3, "male")
	b.ReportMetric(ind.Box.P90, "individual-p90")
	b.ReportMetric(top.Box.P90, "top2way-p90")
	b.ReportMetric(top3.Box.P90, "top3way-p90")
}

// BenchmarkFigure2 regenerates Figure 2 (Facebook, Google, LinkedIn) and
// reports each platform's Individual P90 toward males (paper: FB 1.45,
// LinkedIn 2.09).
func BenchmarkFigure2(b *testing.B) {
	r := runner(b)
	var rows []experiments.BoxRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	fb, _ := findBox(rows, catalog.PlatformFacebook, experiments.SetIndividual, "male")
	g, _ := findBox(rows, catalog.PlatformGoogle, experiments.SetIndividual, "male")
	li, _ := findBox(rows, catalog.PlatformLinkedIn, experiments.SetIndividual, "male")
	b.ReportMetric(fb.Box.P90, "facebook-p90")
	b.ReportMetric(g.Box.P90, "google-p90")
	b.ReportMetric(li.Box.P90, "linkedin-p90")
}

// BenchmarkFigure3 regenerates Figure 3 (removal sweep, gender) and reports
// the FB-restricted Top-2-way P90 after removing the top 10 percentile of
// skewed individuals (paper: 3.02).
func BenchmarkFigure3(b *testing.B) {
	r := runner(b)
	var series []experiments.RemovalSeries
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Platform == catalog.PlatformFacebookRestricted && s.Direction == core.Top {
			pts := s.Points
			b.ReportMetric(pts[0].P90, "p90-at-0pct")
			b.ReportMetric(pts[len(pts)-1].P90, "p90-at-10pct")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (age-range box batteries) and
// reports LinkedIn's Individual median toward 55+ (the paper's strongest
// systematic age lean).
func BenchmarkFigure4(b *testing.B) {
	r := runner(b)
	var rows []experiments.BoxRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	li, _ := findBox(rows, catalog.PlatformLinkedIn, experiments.SetIndividual, "55+")
	b.ReportMetric(li.Box.Median, "linkedin-55plus-median")
}

// BenchmarkFigure5 regenerates Figure 5 (recall distributions) and reports
// the ratio of Top-2-way median recall to Individual median recall for
// females on Facebook (paper: compositions reach less than individuals).
func BenchmarkFigure5(b *testing.B) {
	r := runner(b)
	var rows []experiments.RecallRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var ind, top float64
	for _, row := range rows {
		if row.Platform == catalog.PlatformFacebook && row.Class == "female" {
			switch row.Set {
			case experiments.SetIndividual:
				ind = row.Box.Median
			case experiments.SetTop2:
				top = row.Box.Median
			}
		}
	}
	if ind > 0 {
		b.ReportMetric(top/ind, "top2way-vs-individual-recall")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (age removal sweeps).
func BenchmarkFigure6(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 and reports the mean top-10/top-1
// recall gain across rows (paper: up to 40× for LinkedIn female).
func BenchmarkTable1(b *testing.B) {
	r := runner(b)
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	var gain float64
	n := 0
	var overlaps []float64
	for _, row := range rows {
		if row.Top1Recall > 0 {
			gain += float64(row.Top10Recall) / float64(row.Top1Recall)
			n++
		}
		overlaps = append(overlaps, row.MedianOverlap)
	}
	if n > 0 {
		b.ReportMetric(gain/float64(n), "mean-top10-gain")
	}
	if med, err := stats.Median(overlaps); err == nil {
		b.ReportMetric(med*100, "median-overlap-pct")
	}
}

// BenchmarkTable2 regenerates Table 2 and reports the mean amplification
// factor combined/max(individual) across example rows.
func BenchmarkTable2(b *testing.B) {
	r := runner(b)
	var rows []experiments.ExampleRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Table2(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanAmplification(rows), "mean-amplification")
}

// BenchmarkTable3 regenerates Table 3 (age-skewed examples).
func BenchmarkTable3(b *testing.B) {
	r := runner(b)
	var rows []experiments.ExampleRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Table3(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanAmplification(rows), "mean-amplification")
}

// meanAmplification averages combined / max(R1, R2) over example rows.
func meanAmplification(rows []experiments.ExampleRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, row := range rows {
		base := row.R1
		if row.R2 > base {
			base = row.R2
		}
		if base > 0 {
			sum += row.Combined / base
		}
	}
	return sum / float64(len(rows))
}

// BenchmarkConsistency reproduces the §3 consistency study (100 repeated
// calls over 40 targetings per platform) and reports the inconsistency
// count (paper: 0).
func BenchmarkConsistency(b *testing.B) {
	r := runner(b)
	var rows []experiments.MethodologyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Methodology(experiments.MethodologyConfig{
			ConsistencyRepeats: 100, GranularityCalls: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	bad := 0
	for _, row := range rows {
		bad += row.Inconsistent
	}
	b.ReportMetric(float64(bad), "inconsistent")
}

// BenchmarkGranularity reproduces the §3 granularity study and reports the
// inferred significant digits below 100k for Google (paper: 1).
func BenchmarkGranularity(b *testing.B) {
	r := runner(b)
	var rows []experiments.MethodologyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.Methodology(experiments.MethodologyConfig{
			ConsistencyRepeats: 2, GranularityCalls: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Platform == catalog.PlatformGoogle {
			b.ReportMetric(float64(row.SigDigitsSmall), "google-sig-digits")
		}
	}
}

// BenchmarkLookalikeStudy regenerates the lookalike-propagation extension
// and reports the standard-lookalike and special-ad rep ratios of a
// male-skewed seed (the §2.2 Special Ad Audience question).
func BenchmarkLookalikeStudy(b *testing.B) {
	var rows []experiments.LookalikeRow
	var err error
	for i := 0; i < b.N; i++ {
		// Audience creation mutates interface state; use a fresh deployment
		// per iteration.
		r := ablationRunner(b, platform.DeployOptions{Seed: uint64(200 + i)})
		rows, err = r.LookalikeStudy(core.GenderClass(population.Male), 300, 0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		switch row.Audience {
		case "lookalike":
			b.ReportMetric(row.RepRatio, "lookalike-ratio")
		case "special-ad":
			b.ReportMetric(row.RepRatio, "special-ad-ratio")
		}
	}
}

// BenchmarkMitigation regenerates the §5 detector evaluation and reports
// AUC and TPR on the restricted interface.
func BenchmarkMitigation(b *testing.B) {
	r := runner(b)
	var rows []experiments.MitigationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.MitigationStudy(core.GenderClass(population.Male), mitigation.EvalConfig{
			HonestAdvertisers: 12, DiscriminatoryAdvertisers: 8,
			CampaignsPerAdvertiser: 5, PoolK: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Platform == catalog.PlatformFacebookRestricted {
			b.ReportMetric(row.AUC, "auc")
			b.ReportMetric(row.TPR, "tpr")
		}
	}
}

// --- ablations (DESIGN.md §4) ---

// ablationRunner builds a one-off runner with the given deployment knobs.
func ablationRunner(b *testing.B, opts platform.DeployOptions) *experiments.Runner {
	b.Helper()
	opts.UniverseSize = benchUniverse
	if opts.Seed == 0 {
		opts.Seed = 101
	}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		b.Fatal(err)
	}
	r, err := experiments.NewRunner(experiments.Config{
		Deployment: d, K: 200, OverlapTopN: 15, OverlapMaxPairs: 50, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationFactors compares the median pairwise overlap of top
// skewed compositions with latent factors on versus off: factors are what
// produce the non-zero audience overlaps of Table 1.
func BenchmarkAblationFactors(b *testing.B) {
	overlapOf := func(r *experiments.Runner) float64 {
		a, err := r.Auditor(catalog.PlatformFacebook)
		if err != nil {
			b.Fatal(err)
		}
		female := core.GenderClass(population.Female)
		ind, err := r.Individuals(catalog.PlatformFacebook, female)
		if err != nil {
			b.Fatal(err)
		}
		top, err := a.GreedyCompositions(ind, female, core.ComposeConfig{K: 150, Direction: core.Top, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tops := core.TopOf(top, 12)
		if len(tops) < 2 {
			return 0
		}
		med, err := a.MedianOverlap(tops, female, core.OverlapConfig{MaxPairs: 40, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		return med
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = overlapOf(ablationRunner(b, platform.DeployOptions{}))
		without = overlapOf(ablationRunner(b, platform.DeployOptions{NoLatentFactors: true}))
	}
	b.ReportMetric(with*100, "overlap-with-factors-pct")
	b.ReportMetric(without*100, "overlap-without-factors-pct")
}

// BenchmarkAblationActivity compares top-audience overlap with heavy-tailed
// activity on versus uniform activity: the per-user activity offset is the
// other half of Table 1's overlap (alongside latent factors).
func BenchmarkAblationActivity(b *testing.B) {
	overlapOf := func(r *experiments.Runner) float64 {
		a, err := r.Auditor(catalog.PlatformFacebookRestricted)
		if err != nil {
			b.Fatal(err)
		}
		male := core.GenderClass(population.Male)
		ind, err := r.Individuals(catalog.PlatformFacebookRestricted, male)
		if err != nil {
			b.Fatal(err)
		}
		top, err := a.GreedyCompositions(ind, male, core.ComposeConfig{K: 150, Direction: core.Top, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tops := core.TopOf(top, 12)
		if len(tops) < 2 {
			return 0
		}
		med, err := a.MedianOverlap(tops, male, core.OverlapConfig{MaxPairs: 40, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		return med
	}
	var heavy, uniform float64
	for i := 0; i < b.N; i++ {
		heavy = overlapOf(ablationRunner(b, platform.DeployOptions{}))
		uniform = overlapOf(ablationRunner(b, platform.DeployOptions{UniformActivity: true}))
	}
	b.ReportMetric(heavy*100, "overlap-heavy-tail-pct")
	b.ReportMetric(uniform*100, "overlap-uniform-pct")
}

// BenchmarkAblationRounding compares the Top-2-way P90 rep ratio measured
// through rounded estimates versus exact counts: the audit's conclusions
// must not be artifacts of rounding (§3).
func BenchmarkAblationRounding(b *testing.B) {
	p90Of := func(r *experiments.Runner) float64 {
		a, err := r.Auditor(catalog.PlatformFacebookRestricted)
		if err != nil {
			b.Fatal(err)
		}
		male := core.GenderClass(population.Male)
		ind, err := r.Individuals(catalog.PlatformFacebookRestricted, male)
		if err != nil {
			b.Fatal(err)
		}
		top, err := a.GreedyCompositions(ind, male, core.ComposeConfig{K: 150, Direction: core.Top, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		p90, err := stats.Percentile(core.RepRatios(top), 90)
		if err != nil {
			b.Fatal(err)
		}
		return p90
	}
	var rounded, exact float64
	for i := 0; i < b.N; i++ {
		rounded = p90Of(ablationRunner(b, platform.DeployOptions{}))
		exact = p90Of(ablationRunner(b, platform.DeployOptions{ExactEstimates: true}))
	}
	b.ReportMetric(rounded, "p90-rounded")
	b.ReportMetric(exact, "p90-exact")
}

// BenchmarkAblationGreedyVsExhaustive quantifies the greedy discovery
// approximation (§3): on a truncated option pool, how much of the true
// top-K (by exhaustive pairwise search) does the greedy method recover?
func BenchmarkAblationGreedyVsExhaustive(b *testing.B) {
	r := runner(b)
	a, err := r.Auditor(catalog.PlatformFacebookRestricted)
	if err != nil {
		b.Fatal(err)
	}
	male := core.GenderClass(population.Male)
	ind, err := r.Individuals(catalog.PlatformFacebookRestricted, male)
	if err != nil {
		b.Fatal(err)
	}
	// Truncate the pool so the exhaustive baseline stays tractable:
	// C(60, 2) = 1,770 candidate pairs.
	pool := ind
	if len(pool) > 60 {
		pool = pool[:60]
	}
	const K = 30
	var recovered float64
	for i := 0; i < b.N; i++ {
		greedy, err := a.GreedyCompositions(pool, male, core.ComposeConfig{K: K, Direction: core.Top, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		// Exhaustive baseline: audit every pair.
		exhaustive, err := a.GreedyCompositions(pool, male, core.ComposeConfig{K: len(pool) * len(pool), Direction: core.Top, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		trueTop := core.TopOf(exhaustive, K)
		inTrue := make(map[string]bool, len(trueTop))
		for _, m := range trueTop {
			inTrue[m.Desc] = true
		}
		hits := 0
		for _, m := range core.TopOf(greedy, K) {
			if inTrue[m.Desc] {
				hits++
			}
		}
		recovered = float64(hits) / float64(len(trueTop))
	}
	b.ReportMetric(recovered*100, "topk-recovered-pct")
}

// BenchmarkAblationBeamVs3WayGreedy compares 3-way discovery strategies on
// the restricted interface: the paper's greedy combinatorial method versus
// beam search, reporting the discovered P90 ratio and the upstream query
// cost of each. Beam search reaches comparable skew with a bounded query
// budget — the escalation path the paper's appendix anticipates.
func BenchmarkAblationBeamVs3WayGreedy(b *testing.B) {
	male := core.GenderClass(population.Male)
	var greedyP90, beamP90, greedyCalls, beamCalls float64
	for i := 0; i < b.N; i++ {
		d, err := platform.NewDeployment(platform.DeployOptions{Seed: 101, UniverseSize: benchUniverse})
		if err != nil {
			b.Fatal(err)
		}

		// At the beam's skew extreme the out-of-class estimate often rounds
		// to zero (an unbounded ratio) — report the best finite ratio plus
		// the unbounded count, and the upstream query cost.
		run := func(f func(a *core.Auditor, ind []core.Measurement) ([]core.Measurement, error)) (best, unbounded, calls float64) {
			a := core.NewAuditor(core.NewPlatformProvider(d.FacebookRestricted))
			ind, err := a.Individuals(male)
			if err != nil {
				b.Fatal(err)
			}
			base := core.UpstreamCalls(a.Provider())
			ms, err := f(a, ind)
			if err != nil {
				b.Fatal(err)
			}
			best = core.MaxFinite(ms)
			if math.IsNaN(best) {
				best = 0 // every discovered composition was unbounded
			}
			unbounded = float64(len(ms) - len(core.RepRatios(ms)))
			calls = float64(core.UpstreamCalls(a.Provider()) - base)
			return best, unbounded, calls
		}

		var gUnbounded, bUnbounded float64
		greedyP90, gUnbounded, greedyCalls = run(func(a *core.Auditor, ind []core.Measurement) ([]core.Measurement, error) {
			return a.GreedyCompositions(ind, male, core.ComposeConfig{K: 300, Arity: 3, Direction: core.Top, Seed: 5})
		})
		beamP90, bUnbounded, beamCalls = run(func(a *core.Auditor, ind []core.Measurement) ([]core.Measurement, error) {
			return a.BeamCompositions(ind, male, core.BeamConfig{Arity: 3, Width: 40, Seeds: 30, Direction: core.Top})
		})
		_ = gUnbounded
		b.ReportMetric(bUnbounded, "beam-unbounded")
	}
	b.ReportMetric(greedyP90, "greedy-best-finite")
	b.ReportMetric(beamP90, "beam-best-finite")
	b.ReportMetric(greedyCalls, "greedy-queries")
	b.ReportMetric(beamCalls, "beam-queries")
}

// --- parallel audience engine micro-benchmarks ---

// measureBench prepares a warmed restricted interface and the audit's query
// stream for the Measure throughput benchmarks: a 40-plus battery (the
// ADEA-style protected class spans two age buckets, so every spec carries
// the same two-option age clause) — per attribute, a US-scoped reach query
// and its gender-conditioned refinement, the exact pair the auditor issues
// for every option it scans. The interface is pre-warmed so the timed loops
// exercise only the estimate path (no lazy materialization).
func measureBench(b testing.TB) (*platform.Interface, []targeting.Spec) {
	b.Helper()
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 7, UniverseSize: benchUniverse})
	if err != nil {
		b.Fatal(err)
	}
	p := d.FacebookRestricted.Warm()
	n := len(p.Catalog().Attributes)
	us := targeting.Clause{{Kind: targeting.KindLocation, ID: int(population.RegionUS)}}
	male := targeting.Clause{{Kind: targeting.KindGender, ID: int(population.Male)}}
	age40 := targeting.Clause{
		{Kind: targeting.KindAge, ID: int(population.Age35to54)},
		{Kind: targeting.KindAge, ID: int(population.Age55Plus)},
	}
	specs := make([]targeting.Spec, 64)
	for i := 0; i < len(specs); i += 2 {
		attr := targeting.Clause{{Kind: targeting.KindAttribute, ID: (i / 2) % n}}
		specs[i] = targeting.Spec{Include: []targeting.Clause{attr, us, age40}}
		specs[i+1] = targeting.Spec{Include: []targeting.Clause{attr, us, age40, male}}
	}
	return p, specs
}

// BenchmarkMeasureSerial measures single-goroutine estimate throughput —
// the baseline for the parallel speedup target.
func BenchmarkMeasureSerial(b *testing.B) {
	p, specs := measureBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Measure(platform.EstimateRequest{Spec: specs[i%len(specs)]}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchUniverse), "users/op")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkMeasureParallel measures estimate throughput with GOMAXPROCS
// goroutines hammering one shared interface: the lock-free estimate path
// should scale near-linearly with cores (target ≥4× serial at
// GOMAXPROCS ≥ 4).
func BenchmarkMeasureParallel(b *testing.B) {
	p, specs := measureBench(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := p.Measure(platform.EstimateRequest{Spec: specs[i%len(specs)]}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.ReportMetric(float64(benchUniverse), "users/op")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkMeasureBatch measures batched estimate throughput: each
// iteration answers the full 64-spec batch with one MeasureMany call, so
// the attribute-set words stream through cache once per tile instead of
// once per spec. Reports per-query throughput plus the speedup over an
// inline serial baseline timed on the same warmed interface (target ≥2×).
func BenchmarkMeasureBatch(b *testing.B) {
	p, specs := measureBench(b)
	reqs := make([]platform.EstimateRequest, len(specs))
	for i, s := range specs {
		reqs[i].Spec = s
	}
	// Serial baseline: per-query cost of the one-spec door over the same
	// spec cycle, sampled briefly so the speedup metric is self-contained.
	serialStart := time.Now()
	serialOps := 0
	for time.Since(serialStart) < 50*time.Millisecond {
		if _, err := p.Measure(reqs[serialOps%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		serialOps++
	}
	serialPerQuery := time.Since(serialStart).Seconds() / float64(serialOps)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := p.MeasureMany(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ests {
			if e.Err != nil {
				b.Fatal(e.Err)
			}
		}
	}
	b.StopTimer()
	queries := float64(b.N) * float64(len(reqs))
	perQuery := b.Elapsed().Seconds() / queries
	b.ReportMetric(queries/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(serialPerQuery/perQuery, "speedup-vs-serial")
	b.ReportMetric(float64(len(reqs)), "batch-size")
}

// BenchmarkCompiledBatch measures the batch door the audit loop calls: the
// same 64-spec battery as BenchmarkMeasureBatch with every option slot
// built, so each iteration compiles the 64 plans and their schedule afresh
// and runs its kernels. Its speedup over the pre-compiler batch path, from
// the since-deleted plan and schedule caches, is recorded in
// results/BENCH_6.json (2.06x).
func BenchmarkCompiledBatch(b *testing.B) {
	p, specs := measureBench(b)
	reqs := make([]platform.EstimateRequest, len(specs))
	for i, s := range specs {
		reqs[i].Spec = s
	}

	// Build the option slots, and cross-check: compiled answers must match
	// serial Measure slot for slot before timing anything.
	warm, err := p.MeasureMany(reqs)
	if err != nil {
		b.Fatal(err)
	}
	for i, req := range reqs {
		want, err := p.Measure(req)
		if err != nil || warm[i].Err != nil || warm[i].Size != want {
			b.Fatalf("slot %d: compiled (%d, %v) != serial (%d, %v)", i, warm[i].Size, warm[i].Err, want, err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := p.MeasureMany(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ests {
			if e.Err != nil {
				b.Fatal(e.Err)
			}
		}
	}
	b.StopTimer()
	queries := float64(b.N) * float64(len(reqs))
	b.ReportMetric(queries/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(len(reqs)), "batch-size")
}

// benchPopulationConfig is the universe config the construction benchmarks
// build (full feature set: factors, regions, heavy-tailed activity).
func benchPopulationConfig() population.Config {
	return population.Config{
		Seed:          7,
		Size:          benchUniverse,
		MaleShare:     0.48,
		AgeShare:      [population.NumAgeRanges]float64{0.16, 0.27, 0.33, 0.24},
		Factors:       catalog.Factors(),
		USShare:       0.85,
		ActivitySigma: 1.5,
	}
}

// BenchmarkUniverseNew measures sharded universe construction.
func BenchmarkUniverseNew(b *testing.B) {
	cfg := benchPopulationConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := population.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchUniverse), "users/op")
	b.ReportMetric(float64(benchUniverse)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
}

// BenchmarkMaterialize measures sharded attribute-bitset materialization.
func BenchmarkMaterialize(b *testing.B) {
	u, err := population.New(benchPopulationConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := population.AttrModel{ID: 42, BaseLogit: -2.2, GenderLoad: 1.1, Factor: 0, FactorBoost: 1.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Materialize(m)
	}
	b.ReportMetric(float64(benchUniverse), "users/op")
	b.ReportMetric(float64(benchUniverse)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
}

// BenchmarkDeploymentBuild measures testbed construction cost.
func BenchmarkDeploymentBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := platform.NewDeployment(platform.DeployOptions{Seed: 7, UniverseSize: 1 << 14}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndividualScan measures a full individual-attribute scan on the
// restricted interface (the audit's base workload).
func BenchmarkIndividualScan(b *testing.B) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 7, UniverseSize: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	male := core.GenderClass(population.Male)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.NewAuditor(core.NewPlatformProvider(d.FacebookRestricted))
		if _, err := a.Individuals(male); err != nil {
			b.Fatal(err)
		}
	}
}
