// Package platform assembles the simulated ad platforms: a user universe, a
// targeting-option catalog, composition rules, a campaign-objective table,
// and an audience-size estimator with the platform's rounding scheme.
//
// Each Interface answers the single question the paper's methodology relies
// on — "how many users match this targeting spec?" — through two doors:
//
//   - Estimate: what the platform shows an advertiser. The spec must satisfy
//     the interface's advertiser rules (Facebook's restricted interface
//     rejects demographic targeting and exclusions) and the result is
//     rounded platform-scale.
//   - Measure: what the auditor can obtain. For Facebook's restricted
//     interface the paper measured demographic conditioning through the
//     *normal* interface's equivalent options (§3); Measure therefore
//     validates against separate measurement rules that allow demographics.
//
// Estimates are reported at platform scale (simulated count × ScaleFactor)
// so rounding floors and recall magnitudes behave like the live platforms'.
//
// Every door counts through the audience query compiler and compiles its
// call afresh: a batch into one schedule, a serial query into a lone plan.
// Nothing compiled outlives the call, so each query counts in
// plans_compiled_total and batch_kernel_blocks_total whatever the catalog
// posture. Dense set algebra, Interface.Audience, is kept as the oracle the
// compiled doors are tested against.
package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/audience"
	"repro/internal/catalog"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pii"
	"repro/internal/pixel"
	"repro/internal/population"
	"repro/internal/targeting"
)

// Objective is a campaign objective selectable when requesting estimates.
type Objective string

// Objectives offered by the simulated interfaces. The paper always selects
// the reach-style objective of each platform to obtain the broadest
// audience (§3).
const (
	ObjectiveReach               Objective = "reach"                     // Facebook
	ObjectiveBrandAwarenessReach Objective = "brand-awareness-and-reach" // Google
	ObjectiveBrandAwareness      Objective = "brand-awareness"           // LinkedIn
	ObjectiveTraffic             Objective = "traffic"                   // narrower, all platforms
)

// EstimateRequest carries the estimate query parameters.
type EstimateRequest struct {
	// Spec is the targeting expression.
	Spec targeting.Spec
	// Objective is the campaign objective; the zero value selects the
	// interface's reach-style default.
	Objective Objective
	// FrequencyCapPerMonth applies to Google only: the maximum impressions
	// shown per user per month. Google's size statistic is an impression
	// estimate, so the reported number scales with the cap. The paper sets
	// the most restrictive value (1) so impressions ≈ unique users. Zero
	// selects 1.
	FrequencyCapPerMonth int
}

// Errors returned by estimate queries.
var (
	ErrUnknownObjective = errors.New("platform: unsupported campaign objective")
	ErrBadFrequencyCap  = errors.New("platform: frequency cap must be in [1, 30]")
)

// Config assembles one Interface.
type Config struct {
	// Name is the interface name (catalog.Platform* constants).
	Name string
	// Universe is the user population behind the interface. Interfaces of
	// the same company (Facebook full and restricted) share one universe.
	Universe *population.Universe
	// Catalog is the interface's targeting-option catalog.
	Catalog *catalog.Catalog
	// AdvertiserRules validate advertiser-facing estimate queries.
	AdvertiserRules targeting.Rules
	// MeasurementRules validate auditor measurement queries; when nil the
	// advertiser rules are used.
	MeasurementRules *targeting.Rules
	// Rounder rounds reported estimates.
	Rounder estimate.Rounder
	// Objectives maps supported objectives to the fraction of the matched
	// audience eligible under that objective (reach-style = 1).
	Objectives map[Objective]float64
	// DefaultObjective is used when a request leaves Objective empty.
	DefaultObjective Objective
	// ImpressionEstimates marks interfaces (Google) whose size statistic
	// counts impressions, making it sensitive to the frequency cap.
	ImpressionEstimates bool
	// SpecialAdAudiences marks interfaces (Facebook restricted) where
	// lookalike creation is replaced by demographic-blind "Special Ad
	// Audiences" (paper §2.2).
	SpecialAdAudiences bool
	// CSetOnly selects the compressed catalog: each catalog option audience
	// is held only in compressed form, materialized dense once on first
	// use, compressed, and the dense form dropped. Compiled plans read the
	// options as compressed-only operands. Without it, and without Views,
	// the catalog is dense. Both postures compile every call afresh. The
	// compressed catalog is what lets a 2^24-user shard fit in memory.
	CSetOnly bool
	// Views supplies every catalog option audience as a compressed set,
	// typically aliasing an mmap'd snapshot (internal/snapshot), and
	// implies the compressed catalog: New fills each option's slot from
	// its view, so the interface never materializes an option for a query
	// and Warm has nothing left to build.
	Views *OptionViews
	// Metrics receives the interface's query counters; nil selects the
	// process-wide obs.Default() registry.
	Metrics *obs.Registry
}

// Interface is one simulated advertiser-facing targeting interface.
//
// Estimate, Measure, Audience, and Warm are safe for concurrent use: the
// catalog-option caches are per-slot atomics, the query counter is atomic,
// and every call compiles its own plans, so the query path takes no lock
// but the narrow RWMutex that custom-audience creation and lookup
// serialize on.
type Interface struct {
	cfg Config

	dims       [len(optionKinds)]optionDim // catalog option state, by kind
	demo       []lazyOperand               // the universe's demographic sets, counted once
	queryCount atomic.Int64

	// Query counters, resolved once at construction so the estimate hot
	// path pays only atomic adds (the Measure benchmarks gate the
	// overhead at ≤5%).
	mEstimateQueries *obs.Counter   // platform_queries_total{door="estimate"}
	mMeasureQueries  *obs.Counter   // platform_queries_total{door="measure"}
	mRoundingHits    *obs.Counter   // estimates the rounder changed
	mFloorRejections *obs.Counter   // nonzero exact sizes floored to 0
	mBatchedQueries  *obs.Counter   // batched_queries_total: queries answered by a batch door
	mBatchBlocks     *obs.Counter   // batch_kernel_blocks_total: tiles the kernel walked, serial doors included
	mBatchSize       *obs.Histogram // batch_size_specs: log2 batch-size distribution
	mPlansCompiled   *obs.Counter   // plans_compiled_total: every CompilePlan run, serial doors included

	mu      sync.RWMutex // guards custom, dir, tracker
	custom  []customAudience
	dir     *pii.Directory
	tracker *pixel.Tracker
}

// optionKinds are the catalog option kinds, in Interface.dims order.
var optionKinds = [...]targeting.Kind{targeting.KindAttribute, targeting.KindTopic, targeting.KindPlacement}

// optionDim is one catalog option kind's state: the options and one lazily
// built audience slot per option, holding the dense set on a dense catalog
// and only the compressed set on a compressed one.
type optionDim struct {
	opts []catalog.Attribute
	sets []lazyOperand
}

// dim returns the state of catalog option kind k, or nil for other kinds.
func (p *Interface) dim(k targeting.Kind) *optionDim {
	switch k {
	case targeting.KindAttribute:
		return &p.dims[0]
	case targeting.KindTopic:
		return &p.dims[1]
	case targeting.KindPlacement:
		return &p.dims[2]
	}
	return nil
}

// lazyOperand caches one audience as a plan operand with its membership
// count. The steady-state path is one atomic load and reads the operand
// from the slot itself, not through a pointer: the serial door resolves
// several refs per query, and a chase to a separate object costs each one
// a cache miss. The first miss builds under a sync.Once so racing callers
// never duplicate the build and all observe the same operand; done is set
// only after op is written.
type lazyOperand struct {
	done atomic.Bool
	op   audience.Operand
	once sync.Once
}

// get returns the cached operand, building it on first use.
func (lo *lazyOperand) get(build func() audience.Operand) audience.Operand {
	if lo.done.Load() {
		return lo.op
	}
	lo.once.Do(func() {
		lo.op = build()
		lo.done.Store(true)
	})
	return lo.op
}

// counted returns a dense set as an operand carrying its count.
func counted(s *audience.Set) audience.Operand { return audience.Operand{Set: s, Card: s.Count()} }

// New builds an Interface and validates its configuration.
func New(cfg Config) (*Interface, error) {
	if cfg.Name == "" {
		return nil, errors.New("platform: empty interface name")
	}
	if cfg.Universe == nil || cfg.Catalog == nil || cfg.Rounder == nil {
		return nil, errors.New("platform: universe, catalog, and rounder are required")
	}
	if len(cfg.Objectives) == 0 {
		return nil, errors.New("platform: at least one objective required")
	}
	if _, ok := cfg.Objectives[cfg.DefaultObjective]; !ok {
		return nil, fmt.Errorf("platform: default objective %q not in objective table", cfg.DefaultObjective)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	iface := obs.L("interface", cfg.Name)
	p := &Interface{
		cfg:              cfg,
		demo:             make([]lazyOperand, population.NumGenders+population.NumAgeRanges+population.NumRegions),
		mEstimateQueries: reg.Counter("platform_queries_total", iface, obs.L("door", "estimate")),
		mMeasureQueries:  reg.Counter("platform_queries_total", iface, obs.L("door", "measure")),
		mRoundingHits:    reg.Counter("platform_rounding_hits_total", iface),
		mFloorRejections: reg.Counter("platform_floor_rejections_total", iface),
		mBatchedQueries:  reg.Counter("batched_queries_total", iface),
		mBatchBlocks:     reg.Counter("batch_kernel_blocks_total", iface),
		mBatchSize:       reg.Histogram("batch_size_specs", iface),
		mPlansCompiled:   reg.Counter("plans_compiled_total", iface),
	}
	var views [len(optionKinds)][]*audience.CSet
	if v := cfg.Views; v != nil {
		if err := v.validate(cfg.Catalog, cfg.Universe.Size()); err != nil {
			return nil, err
		}
		views = [...][]*audience.CSet{v.Attributes, v.Topics, v.Placements}
	}
	for i, opts := range [][]catalog.Attribute{cfg.Catalog.Attributes, cfg.Catalog.Topics, cfg.Catalog.Placements} {
		sets := make([]lazyOperand, len(opts))
		for j, c := range views[i] {
			sets[j].op = audience.Operand{C: c, Card: c.Count()}
			sets[j].done.Store(true)
		}
		p.dims[i] = optionDim{opts: opts, sets: sets}
	}
	return p, nil
}

// compressedCatalog reports whether the interface holds its catalog option
// audiences only in compressed form (CSetOnly or Views).
func (p *Interface) compressedCatalog() bool { return p.cfg.CSetOnly || p.cfg.Views != nil }

// Name returns the interface name.
func (p *Interface) Name() string { return p.cfg.Name }

// Universe returns the backing population.
func (p *Interface) Universe() *population.Universe { return p.cfg.Universe }

// Catalog returns the interface's option catalog.
func (p *Interface) Catalog() *catalog.Catalog { return p.cfg.Catalog }

// Rules returns the advertiser-facing composition rules.
func (p *Interface) Rules() targeting.Rules { return p.cfg.AdvertiserRules }

// MeasurementRules returns the auditor-facing rules.
func (p *Interface) MeasurementRules() targeting.Rules {
	if p.cfg.MeasurementRules != nil {
		return *p.cfg.MeasurementRules
	}
	return p.cfg.AdvertiserRules
}

// Rounder returns the interface's estimate rounding scheme.
func (p *Interface) Rounder() estimate.Rounder { return p.cfg.Rounder }

// ScaleFactor converts simulated user counts to platform-scale counts.
func (p *Interface) ScaleFactor() float64 { return p.cfg.Universe.ScaleFactor() }

// QueryCount reports how many estimate queries the interface has served.
func (p *Interface) QueryCount() int64 {
	return p.queryCount.Load()
}

// refSet resolves one targeting ref to a dense audience set. On a
// compressed catalog an option is materialized afresh and not retained, so
// the oracle never reads the encoding it checks.
func (p *Interface) refSet(r targeting.Ref) (*audience.Set, error) {
	if d := p.dim(r.Kind); d != nil && p.compressedCatalog() && r.ID >= 0 && r.ID < len(d.opts) {
		return p.cfg.Universe.Materialize(d.opts[r.ID].Model), nil
	}
	op, err := p.operandFor(r)
	return op.Set, err
}

// operandFor resolves one targeting ref to a plan operand. A catalog option
// resolves to its slot, built on first use: the dense set on a dense
// catalog, the compressed set alone on a compressed one. Options and
// demographics carry their membership count, taken once per interface; a
// custom audience leaves counting to the compiler.
func (p *Interface) operandFor(r targeting.Ref) (audience.Operand, error) {
	if d := p.dim(r.Kind); d != nil {
		if r.ID < 0 || r.ID >= len(d.opts) {
			return audience.Operand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
		}
		return d.sets[r.ID].get(func() audience.Operand {
			s := p.cfg.Universe.Materialize(d.opts[r.ID].Model)
			if !p.compressedCatalog() {
				return counted(s)
			}
			c := audience.FromSet(s)
			return audience.Operand{C: c, Card: c.Count()}
		}), nil
	}
	u := p.cfg.Universe
	var slot, limit int
	var set func() *audience.Set
	switch r.Kind {
	case targeting.KindGender:
		slot, limit = r.ID, population.NumGenders
		set = func() *audience.Set { return u.GenderSet(population.Gender(r.ID)) }
	case targeting.KindAge:
		slot, limit = population.NumGenders+r.ID, population.NumAgeRanges
		set = func() *audience.Set { return u.AgeSet(population.AgeRange(r.ID)) }
	case targeting.KindLocation:
		slot, limit = population.NumGenders+population.NumAgeRanges+r.ID, population.NumRegions
		set = func() *audience.Set { return u.RegionSet(population.Region(r.ID)) }
	case targeting.KindCustomAudience:
		s, err := p.customSet(r)
		return audience.Operand{Set: s}, err
	default:
		return audience.Operand{}, fmt.Errorf("%w: %s", targeting.ErrKindForbidden, r)
	}
	if r.ID < 0 || r.ID >= limit {
		return audience.Operand{}, fmt.Errorf("%w: %s", targeting.ErrInvalidDemoValue, r)
	}
	return p.demo[slot].get(func() audience.Operand { return counted(set()) }), nil
}

// clauseSet evaluates one OR-clause into an audience set.
func (p *Interface) clauseSet(cl targeting.Clause) (*audience.Set, error) {
	var out *audience.Set
	for _, r := range cl {
		s, err := p.refSet(r)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = s.Clone()
		} else {
			out.OrWith(s)
		}
	}
	if out == nil {
		return nil, targeting.ErrEmptyClause
	}
	return out, nil
}

// Audience evaluates a spec into the exact set of matching users by dense
// set algebra, outside the query compiler. It does not validate rules;
// callers wanting advertiser or measurement semantics use Estimate or
// Measure. It is the oracle the compiled doors are tested against, and
// serves ablations that need the matched users themselves.
func (p *Interface) Audience(spec targeting.Spec) (*audience.Set, error) {
	if len(spec.Include) == 0 {
		return nil, targeting.ErrEmptySpec
	}
	var acc *audience.Set
	for _, cl := range spec.Include {
		s, err := p.clauseSet(cl)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = s
		} else {
			acc.AndWith(s)
		}
	}
	for _, cl := range spec.Exclude {
		s, err := p.clauseSet(cl)
		if err != nil {
			return nil, err
		}
		acc.AndNotWith(s)
	}
	return acc, nil
}

// QueryParams validates a request under the door's rules and returns the
// two factors its count is scaled by: the objective-eligibility fraction
// and, on impression-estimating interfaces, the frequency-cap impression
// factor (1 elsewhere). Every door calls it, so all reject and scale
// identically; the cluster coordinator calls it on its zero-user metadata
// interface, deciding validation outcomes and factors once, exactly as a
// single node does.
func (p *Interface) QueryParams(door Door, req EstimateRequest) (eligible, impressions float64, err error) {
	if err := p.doorRules(door).Validate(req.Spec); err != nil {
		return 0, 0, err
	}
	obj := req.Objective
	if obj == "" {
		obj = p.cfg.DefaultObjective
	}
	eligible, ok := p.cfg.Objectives[obj]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownObjective, obj)
	}
	cap := req.FrequencyCapPerMonth
	if cap == 0 {
		cap = 1
	}
	if cap < 1 || cap > 30 {
		return 0, 0, ErrBadFrequencyCap
	}
	impressions = 1
	if p.cfg.ImpressionEstimates {
		// With a per-user monthly cap of c, a Display campaign can serve up
		// to c impressions to each matched user; light users see fewer.
		// The sub-linear factor models users with fewer eligible pageviews
		// than the cap.
		impressions = impressionFactor(cap)
	}
	return eligible, impressions, nil
}

// impressionFactor converts a frequency cap into expected impressions per
// matched user. Cap 1 yields exactly 1 (impressions ≈ unique users — the
// setting the paper uses); higher caps saturate as light users run out of
// pageviews.
func impressionFactor(cap int) float64 {
	f := 0.0
	perUser := 1.0
	for i := 0; i < cap; i++ {
		f += perUser
		perUser *= 0.82
	}
	return f
}

// ScaleAndRound converts a raw matched-user count into the door-visible
// rounded platform-scale size — count × ScaleFactor × eligible, × the
// impression factor on impression-estimating interfaces, +0.5 truncation,
// then the interface's rounder — and tallies whether rounding changed the
// value (rounding hit) or floored a nonzero audience to 0 (the paper's
// minimum-reporting floors: Facebook 1,000, LinkedIn 300, Google 40). It
// is the one scale-and-round expression: the serial and batched doors
// apply it to their counts, and a cluster coordinator to the sum of its
// shards' counts, which is therefore bit-identical to a single node
// counting the full universe.
func (p *Interface) ScaleAndRound(count int64, eligible, impressions float64) int64 {
	v := float64(count) * p.ScaleFactor() * eligible
	if p.cfg.ImpressionEstimates {
		v *= impressions
	}
	exact := int64(v + 0.5)
	rounded := p.cfg.Rounder.Round(exact)
	switch {
	case rounded == 0 && exact > 0:
		p.mFloorRejections.Inc()
	case rounded != exact:
		p.mRoundingHits.Inc()
	}
	return rounded
}

// Estimate returns the advertiser-visible rounded size estimate.
func (p *Interface) Estimate(req EstimateRequest) (int64, error) {
	return p.size(nil, DoorEstimate, req)
}

// Measure returns the rounded size estimate under measurement rules — the
// auditor's view, which may condition on demographics even when the
// advertiser interface forbids them.
func (p *Interface) Measure(req EstimateRequest) (int64, error) {
	return p.size(nil, DoorMeasure, req)
}

// EstimateCtx is Estimate under a trace context.
func (p *Interface) EstimateCtx(ctx context.Context, req EstimateRequest) (int64, error) {
	return p.size(trace.FromContext(ctx), DoorEstimate, req)
}

// MeasureCtx is Measure under a trace context: when ctx carries a sampled
// span the measurement records a platform child span and a provenance
// record; an untraced context costs one context lookup.
func (p *Interface) MeasureCtx(ctx context.Context, req EstimateRequest) (int64, error) {
	return p.size(trace.FromContext(ctx), DoorMeasure, req)
}

// size answers one serial size query through the door: QueryParams,
// countSpec, then ScaleAndRound. parent is the caller's trace span, nil on
// untraced calls; traced and untraced calls run the same code and return
// the same answers.
func (p *Interface) size(parent *trace.Span, door Door, req EstimateRequest) (int64, error) {
	var span *trace.Span
	if parent != nil {
		span = trace.ChildOf(parent, "platform."+door.String())
		span.Annotate("interface", p.cfg.Name)
		defer span.End()
	}
	eligible, impressions, err := p.QueryParams(door, req)
	if err != nil {
		span.SetError(err)
		return 0, err
	}
	count, err := p.countSpec(req.Spec)
	if err != nil {
		span.SetError(err)
		return 0, err
	}
	p.queryCount.Add(1)
	p.doorCounter(door).Inc()
	size := p.ScaleAndRound(int64(count), eligible, impressions)
	if plog := span.ProvenanceLog(); plog != nil {
		plog.Add(trace.Provenance{
			Platform: p.cfg.Name,
			Key:      targeting.Canonical(req.Spec),
			Source:   "platform",
			TraceID:  span.TraceID(),
			Value:    size,
		})
	}
	return size, nil
}

// countSpec counts the users matching one spec on every catalog posture
// the same way: it compiles the spec afresh and executes it as a lone
// plan, computing no canonical key but for a multi-ref OR clause's union.
// Each call counts in plans_compiled_total and batch_kernel_blocks_total.
func (p *Interface) countSpec(spec targeting.Spec) (int, error) {
	var memo unionMemo
	plan, err := p.compileSpec(spec, &memo)
	if err != nil {
		return 0, err
	}
	counts, tiles := audience.CompileBatch([]*audience.Plan{plan}).Exec(nil)
	p.mPlansCompiled.Inc()
	p.mBatchBlocks.Add(int64(tiles))
	return counts[0], nil
}

// Warm builds every attribute, topic, and placement audience slot, fanning
// the builds out across GOMAXPROCS workers, and returns the interface so
// deployments can chain it. Optional; useful to front-load cost before
// serving or benchmarking so first-query latency is not dominated by lazy
// materialization. Safe to call concurrently with queries. A compressed
// catalog retains only the compressed forms; on a snapshot-backed one
// (Config.Views) every slot is already filled, and cold containers fault
// in from the page cache on first touch instead.
func (p *Interface) Warm() *Interface {
	var refs []targeting.Ref
	for i, k := range optionKinds {
		for id := range p.dims[i].opts {
			refs = append(refs, targeting.Ref{Kind: k, ID: id})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(refs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(refs)); i = next.Add(1) - 1 {
				p.operandFor(refs[i])
			}
		}()
	}
	wg.Wait()
	return p
}
