package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/population"
	"repro/internal/targeting"
)

// DefaultRecallFloor is the paper's niche-targeting cutoff: targetings with
// a total reach below 10,000 are excluded everywhere (§3).
const DefaultRecallFloor = 10_000

// ErrBelowFloor marks a targeting whose audience is too small to measure a
// meaningful representation ratio (both the in-class and out-of-class
// estimates rounded to zero, or reach below the floor).
var ErrBelowFloor = errors.New("core: targeting below measurement floor")

// Measurement is one audited targeting: its spec, a human-readable
// description, and the metrics of Equation 1.
type Measurement struct {
	// Desc describes the targeting, e.g. "Electrical engineering ∧ Cars".
	Desc string
	// Spec is the measured targeting expression.
	Spec targeting.Spec
	// RepRatio is the representation ratio toward the audited class
	// (Equation 1); math.Inf(1) when the out-of-class estimate rounds to 0.
	RepRatio float64
	// Recall is |TA ∩ RA_s| — how many members of the sensitive population
	// the targeting reaches (for excluded classes, the complement count).
	Recall int64
	// TotalReach is |TA| at platform scale.
	TotalReach int64
	// InClass and OutClass are the rounded estimates of |TA ∩ RA_s| and
	// |TA ∩ RA_¬s| for the base (non-excluded) class, retained so rounding
	// bounds can be re-analysed (§3, "Understanding size estimates").
	InClass, OutClass int64
	// TraceID links the measurement to its recorded distributed trace
	// (/debug/traces, adauditctl -trace) when the process tracer sampled
	// it; empty otherwise. Provenance records carry the same ID, so a
	// reported number is attributable to the exact spans — cache tier,
	// compiled plan, shard set — that produced it.
	TraceID string `json:",omitempty"`
}

// Auditor runs the paper's measurements against one platform Provider.
// The measurement cache and providers are safe for concurrent use; the
// Auditor itself must be driven from one goroutine.
type Auditor struct {
	// p is the measurement cache every audit size goes through; p.Provider
	// is the uncached provider, used where the methodology must genuinely
	// re-issue calls (the consistency study).
	p *cachingProvider
	// RecallFloor is the minimum total reach for a targeting to be
	// considered (platform-scale).
	RecallFloor int64
	// Progress, when set, receives live audit progress during fan-out
	// scans: the number of specs completed so far and the batch total.
	// Each fan-out delivers done = 1, 2, …, total in order, one call per
	// spec, from the goroutine driving the Auditor once the fan-out's
	// measurements are in. The callback must be fast (it sits on the
	// audit path). No callbacks are delivered after Ctx is cancelled.
	Progress func(done, total int)
	// Ctx, when non-nil, cancels audit campaigns: once the context is
	// done, Audit and the fan-out scans fail fast with the context's
	// error instead of issuing further measurements, and progress
	// callbacks stop. Cancellation takes effect between specs on the
	// serial Audit path and between the two batched measurement phases
	// of a fan-out.
	Ctx context.Context

	attrNames  []string
	topicNames []string

	mSpecs      *obs.Counter // audit_specs_total: specs audited
	mBelowFloor *obs.Counter // audit_below_floor_total: under the recall floor

	// scope is ANDed into every measurement: the paper's methodology
	// targets all U.S. users as the reference audience RA (§3), expressed
	// through the platforms' location targeting.
	scope targeting.Clause

	classTotals map[Class]classTotals
}

// classTotals caches |RA_s| and |RA_¬s| per class.
type classTotals struct {
	in, out int64
}

// NewAuditor returns an auditor over p with the paper's default floor. The
// provider is wrapped with a measurement cache if it is not already one;
// audit metrics land in the process-wide obs registry.
func NewAuditor(p Provider) *Auditor {
	return NewAuditorWith(p, nil)
}

// NewAuditorWith is NewAuditor reporting into reg (nil selects
// obs.Default()); a cache wrapper created here reports into the same
// registry.
func NewAuditorWith(p Provider, reg *obs.Registry) *Auditor {
	if reg == nil {
		reg = obs.Default()
	}
	cp, ok := p.(*cachingProvider)
	if !ok {
		cp = NewCachingProviderWith(p, reg).(*cachingProvider)
	}
	lbl := obs.L("platform", cp.Name())
	return &Auditor{
		p:           cp,
		RecallFloor: DefaultRecallFloor,
		attrNames:   cp.AttributeNames(),
		topicNames:  cp.TopicNames(),
		scope:       targeting.Clause{{Kind: targeting.KindLocation, ID: int(population.RegionUS)}},
		classTotals: make(map[Class]classTotals),
		mSpecs:      reg.Counter("audit_specs_total", lbl),
		mBelowFloor: reg.Counter("audit_below_floor_total", lbl),
	}
}

// ctxErr reports the auditor's cancellation state (nil without a Ctx).
func (a *Auditor) ctxErr() error {
	if a.Ctx == nil {
		return nil
	}
	return a.Ctx.Err()
}

// scoped returns spec AND cl AND the auditor's location scope, clauses in
// that order: the spec's audience among the scope population, conditioned
// on a class clause unless cl is nil. The order fixes the compiled plan's
// operand order. The result is one allocation, its include list; the
// clauses are shared, not copied (targeting.Clause is immutable).
func (a *Auditor) scoped(spec targeting.Spec, cl targeting.Clause) targeting.Spec {
	if cl == nil {
		return targeting.And(spec, targeting.Spec{Include: []targeting.Clause{a.scope}})
	}
	return targeting.And(spec, targeting.Spec{Include: []targeting.Clause{cl, a.scope}})
}

// measureScoped is the auditor's serial measurement path, a one-slot
// batch through the cache: it measures spec AND cl (nil cl: spec alone),
// restricted to the scope population as every size the methodology
// consumes is. With a live span the measurement flows through the provider
// chain's traced doors (cache partition, platform kernel, cluster fan-out
// spans).
func (a *Auditor) measureScoped(span *trace.Span, spec targeting.Spec, cl targeting.Clause) (int64, error) {
	var buf [1]BatchResult
	r := a.p.measureMany(span, []targeting.Spec{a.scoped(spec, cl)}, buf[:0])[0]
	return r.Size, r.Err
}

// Provider returns the underlying (cache-wrapped) provider.
func (a *Auditor) Provider() Provider { return a.p }

// PlatformName returns the audited platform interface's name.
func (a *Auditor) PlatformName() string { return a.p.Name() }

// AttrCount returns the number of attribute options.
func (a *Auditor) AttrCount() int { return len(a.attrNames) }

// TopicCount returns the number of topic options.
func (a *Auditor) TopicCount() int { return len(a.topicNames) }

// RefName returns the display name of a targeting ref.
func (a *Auditor) RefName(r targeting.Ref) string {
	switch r.Kind {
	case targeting.KindAttribute:
		if r.ID >= 0 && r.ID < len(a.attrNames) {
			return a.attrNames[r.ID]
		}
	case targeting.KindTopic:
		if r.ID >= 0 && r.ID < len(a.topicNames) {
			return a.topicNames[r.ID]
		}
	}
	return r.String()
}

// Describe renders a spec as the conjunction of its option names.
func (a *Auditor) Describe(spec targeting.Spec) string {
	refs := targeting.Refs(spec)
	parts := make([]string, 0, len(refs))
	for _, r := range refs {
		if r.Kind == targeting.KindAttribute || r.Kind == targeting.KindTopic {
			parts = append(parts, a.RefName(r))
		}
	}
	return strings.Join(parts, " ∧ ")
}

// totals measures (and caches) |RA_s| and |RA_¬s| for the class, with the
// measurements attributed to span's trace (nil = untraced).
func (a *Auditor) totals(span *trace.Span, c Class) (classTotals, error) {
	key := c
	key.Excluded = false
	if t, ok := a.classTotals[key]; ok {
		return t, nil
	}
	// |RA_v| is the scoped audience of value v's clause alone.
	in, err := a.measureScoped(span, targeting.Spec{}, key.baseClause())
	if err != nil {
		return classTotals{}, fmt.Errorf("measuring |RA_s| for %s: %w", key, err)
	}
	var out int64
	for _, cl := range key.otherClauses() {
		v, err := a.measureScoped(span, targeting.Spec{}, cl)
		if err != nil {
			return classTotals{}, fmt.Errorf("measuring |RA_v| for %s: %w", key, err)
		}
		out += v
	}
	t := classTotals{in: in, out: out}
	a.classTotals[key] = t
	return t, nil
}

// PopulationSize returns |RA_s| for the class — the denominator the paper's
// Figure 5 reports as the total size of each sensitive population.
func (a *Auditor) PopulationSize(c Class) (int64, error) {
	t, err := a.totals(nil, c)
	if err != nil {
		return 0, err
	}
	if c.Excluded {
		return t.out, nil
	}
	return t.in, nil
}

// Audit measures one targeting against one class: total reach, recall, and
// the representation ratio of Equation 1. It returns ErrBelowFloor for
// targetings whose total reach is under the floor (wrapped so callers can
// errors.Is it).
func (a *Auditor) Audit(spec targeting.Spec, c Class) (Measurement, error) {
	if err := validateClass(c); err != nil {
		return Measurement{}, err
	}
	if err := a.ctxErr(); err != nil {
		return Measurement{}, err
	}
	a.mSpecs.Inc()
	m := Measurement{Desc: a.Describe(spec), Spec: spec}

	// One audited spec = one trace: the root span covers every size query
	// (reach, class totals, conditioned sizes) the measurement consumes.
	// With tracing disabled StartRoot returns nil and every traced branch
	// below is a pointer check.
	root := trace.Default().StartRoot("audit.measure")
	if root.Sampled() {
		root.Annotate("platform", a.p.Name())
		root.Annotate("spec", m.Desc)
		root.Annotate("class", c.String())
		m.TraceID = root.TraceID()
	}
	var auditErr error
	defer func() {
		root.SetError(auditErr)
		root.End()
	}()

	reach, err := a.measureScoped(root, spec, nil)
	if err != nil {
		auditErr = err
		return m, err
	}
	m.TotalReach = reach
	if reach < a.RecallFloor {
		a.mBelowFloor.Inc()
		auditErr = fmt.Errorf("%w: reach %d < %d", ErrBelowFloor, reach, a.RecallFloor)
		return m, auditErr
	}

	base := c
	base.Excluded = false
	tot, err := a.totals(root, base)
	if err != nil {
		auditErr = err
		return m, err
	}
	tIn, err := a.measureScoped(root, spec, base.baseClause())
	if err != nil {
		auditErr = err
		return m, err
	}
	var tOut int64
	for _, cl := range base.otherClauses() {
		v, err := a.measureScoped(root, spec, cl)
		if err != nil {
			auditErr = err
			return m, err
		}
		tOut += v
	}

	if err := finishMeasurement(&m, c, tot, tIn, tOut); err != nil {
		auditErr = err
		return m, err
	}
	return m, nil
}

// finishMeasurement fills the Equation 1 fields of a measurement from the
// measured class-conditioned sizes — shared by the serial Audit path and
// the batched fan-out so both compute identical ratios and recalls.
func finishMeasurement(m *Measurement, c Class, tot classTotals, tIn, tOut int64) error {
	m.InClass, m.OutClass = tIn, tOut
	ratio, err := repRatio(tIn, tOut, tot.in, tot.out)
	if err != nil {
		return err
	}
	if c.Excluded {
		// Ratio toward the complement population is the reciprocal; recall
		// counts users outside the base class.
		if ratio == 0 {
			ratio = math.Inf(1)
		} else {
			ratio = 1 / ratio
		}
		m.Recall = tOut
	} else {
		m.Recall = tIn
	}
	m.RepRatio = ratio
	return nil
}

// repRatio evaluates Equation 1 from rounded estimates. When the
// out-of-class audience rounds to zero the ratio is +Inf; when the in-class
// audience rounds to zero it is 0; when both do, the targeting is
// unmeasurable.
func repRatio(tIn, tOut, rIn, rOut int64) (float64, error) {
	if rIn <= 0 || rOut <= 0 {
		return 0, fmt.Errorf("core: empty sensitive population (|RA_s|=%d, |RA_¬s|=%d)", rIn, rOut)
	}
	switch {
	case tIn <= 0 && tOut <= 0:
		return 0, fmt.Errorf("%w: both class audiences round to zero", ErrBelowFloor)
	case tOut <= 0:
		return math.Inf(1), nil
	case tIn <= 0:
		return 0, nil
	}
	num := float64(tIn) / float64(rIn)
	den := float64(tOut) / float64(rOut)
	return num / den, nil
}

// RepRatios extracts the finite representation ratios of a measurement set
// (the values the paper's box plots summarize; infinities are dropped).
func RepRatios(ms []Measurement) []float64 {
	out := make([]float64, 0, len(ms))
	for _, m := range ms {
		if !math.IsInf(m.RepRatio, 0) && m.RepRatio > 0 {
			out = append(out, m.RepRatio)
		}
	}
	return out
}

// Recalls extracts the recalls of a measurement set.
func Recalls(ms []Measurement) []float64 {
	out := make([]float64, 0, len(ms))
	for _, m := range ms {
		out = append(out, float64(m.Recall))
	}
	return out
}

// FilterSkewedToward returns the measurements whose rep ratio exceeds the
// four-fifths upper bound (skewed toward the audited class) — the subsets
// whose recall distributions Figure 5 plots.
func FilterSkewedToward(ms []Measurement) []Measurement {
	var out []Measurement
	for _, m := range ms {
		if m.RepRatio > FourFifthsHigh {
			out = append(out, m)
		}
	}
	return out
}
