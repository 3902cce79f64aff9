package core

import (
	"errors"
	"fmt"

	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// auditResult is one fan-out slot: the measurement or the error that
// produced it.
type auditResult struct {
	m   Measurement
	err error
}

// auditMany audits every spec against c, preserving spec order: it
// measures (or reads the cached) class totals, then audits the specs in two
// batched measurement phases (auditManyBatched). An empty spec list returns
// no results.
func (a *Auditor) auditMany(specs []targeting.Spec, c Class) ([]auditResult, error) {
	if err := validateClass(c); err != nil {
		return nil, err
	}
	if err := a.ctxErr(); err != nil {
		return nil, err
	}
	base := c
	base.Excluded = false
	tot, err := a.totals(nil, base)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, nil
	}
	return a.auditManyBatched(specs, c, tot), nil
}

// auditManyBatched is the fan-out: phase one measures every spec's total
// reach in one batch, phase two measures the class-conditioned sizes of the
// specs above the floor in a second batch. Each slot reproduces Audit
// exactly — same measurements through the same cache, same floor cutoff,
// same error precedence (reach, then in-class, then the complement clauses
// in order) — so the results are bit-identical to auditing each spec on its
// own; only the number of passes over the universe changes.
func (a *Auditor) auditManyBatched(specs []targeting.Spec, c Class, tot classTotals) []auditResult {
	results := make([]auditResult, len(specs))
	base := c
	base.Excluded = false
	baseCl, others := base.baseClause(), base.otherClauses()

	a.mSpecs.Add(int64(len(specs)))
	for i, spec := range specs {
		results[i].m = Measurement{Desc: a.Describe(spec), Spec: spec}
	}

	// One batched fan-out = one trace: the root covers both measurement
	// phases, and every spec in the batch carries the same trace ID.
	root := trace.Default().StartRoot("audit.measure_many")
	if root.Sampled() {
		root.Annotate("platform", a.p.Name())
		root.Annotate("class", c.String())
		root.AnnotateInt("specs", int64(len(specs)))
		tid := root.TraceID()
		for i := range results {
			results[i].m.TraceID = tid
		}
	}
	defer root.End()

	// Cancellation takes effect between the two measurement phases: a
	// cancelled batch fails every remaining slot with the context's error
	// instead of issuing the next batched call.
	if err := a.ctxErr(); err != nil {
		for i := range results {
			results[i].err = err
		}
		return results
	}
	reachSpecs := make([]targeting.Spec, len(specs))
	for i, spec := range specs {
		reachSpecs[i] = a.scoped(spec, nil)
	}
	reach := a.p.measureMany(root, reachSpecs, nil)

	// start[i] indexes spec i's group of 1+len(others) conditioned slots in
	// the second batch; -1 marks specs already failed or below the floor.
	per := 1 + len(others)
	start := make([]int, len(specs))
	cond := make([]targeting.Spec, 0, len(specs)*per)
	var belowFloor int64
	for i, spec := range specs {
		start[i] = -1
		if reach[i].Err != nil {
			results[i].err = reach[i].Err
			continue
		}
		results[i].m.TotalReach = reach[i].Size
		if reach[i].Size < a.RecallFloor {
			belowFloor++
			results[i].err = fmt.Errorf("%w: reach %d < %d", ErrBelowFloor, reach[i].Size, a.RecallFloor)
			continue
		}
		start[i] = len(cond)
		cond = append(cond, a.scoped(spec, baseCl))
		for _, cl := range others {
			cond = append(cond, a.scoped(spec, cl))
		}
	}
	a.mBelowFloor.Add(belowFloor)
	if err := a.ctxErr(); err != nil {
		for i := range results {
			if results[i].err == nil {
				results[i].err = err
			}
		}
		return results
	}
	condRes := a.p.measureMany(root, cond, nil)

	total := len(specs)
	for i := range specs {
		if j := start[i]; j >= 0 {
			results[i].err = finishSlot(&results[i].m, c, tot, condRes[j:j+per])
		}
		if a.Progress != nil && a.ctxErr() == nil {
			a.Progress(i+1, total)
		}
	}
	return results
}

// finishSlot folds one spec's conditioned measurements (in-class first,
// then the complement clauses in order) into the measurement.
func finishSlot(m *Measurement, c Class, tot classTotals, slots []BatchResult) error {
	if slots[0].Err != nil {
		return slots[0].Err
	}
	tIn := slots[0].Size
	var tOut int64
	for _, r := range slots[1:] {
		if r.Err != nil {
			return r.Err
		}
		tOut += r.Size
	}
	return finishMeasurement(m, c, tot, tIn, tOut)
}

// IndividualScan audits every option of one feature kind against the class,
// returning the measurable ones (total reach at or above the floor) in
// option order. This is the paper's "Individual" targeting set (§4.1,
// §4.2). The options are audited as one batched fan-out: against the
// in-process simulators each phase is one tiled kernel pass, and against
// remote platforms one HTTP exchange (the client's rate limiter still
// bounds total load, as the paper's ethics required).
func (a *Auditor) IndividualScan(kind targeting.Kind, c Class) ([]Measurement, error) {
	var n int
	switch kind {
	case targeting.KindAttribute:
		n = len(a.attrNames)
	case targeting.KindTopic:
		n = len(a.topicNames)
	default:
		return nil, fmt.Errorf("core: cannot scan feature kind %s", kind)
	}
	specs := make([]targeting.Spec, n)
	for id := 0; id < n; id++ {
		specs[id] = targeting.Spec{Include: []targeting.Clause{{{Kind: kind, ID: id}}}}
	}
	results, err := a.auditMany(specs, c)
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, n)
	for id, r := range results {
		if errors.Is(r.err, ErrBelowFloor) {
			continue
		}
		if r.err != nil {
			return nil, fmt.Errorf("scanning %s %d: %w", kind, id, r.err)
		}
		out = append(out, r.m)
	}
	return out, nil
}

// Individuals audits the platform's full default option list against the
// class: attributes everywhere, plus topics on cross-feature platforms
// (Google's Individual column spans both features).
func (a *Auditor) Individuals(c Class) ([]Measurement, error) {
	ms, err := a.IndividualScan(targeting.KindAttribute, c)
	if err != nil {
		return nil, err
	}
	if a.p.CrossFeature() && len(a.topicNames) > 0 {
		ts, err := a.IndividualScan(targeting.KindTopic, c)
		if err != nil {
			return nil, err
		}
		ms = append(ms, ts...)
	}
	return ms, nil
}
