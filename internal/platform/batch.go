package platform

import (
	"context"
	"time"

	"repro/internal/audience"
	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// This file threads the audience query compiler through the platform's
// batch doors. Every call validates its requests, lowers each valid spec to
// an audience.Plan, freezes the plans into one audience.PlanBatch and
// executes it; nothing compiled outlives the call, on either catalog
// posture. Multi-ref OR clauses resolve to unions shared within the call,
// which is what lets CompileBatch common-subexpression tails across plans.
// The serial doors compile a lone plan the same way (Interface.countSpec).

// Estimate is one slot of a batched size query: the rounded platform-scale
// size, or the error the equivalent serial call would have returned.
type Estimate struct {
	Size int64
	Err  error
}

// MeasureMany answers a batch of auditor-door size queries in one tiled
// pass over the universe (a compiled audience.PlanBatch): per cache-sized
// block, every request is evaluated while the shared attribute words are
// hot, so a batch loads each set from memory once instead of once per spec.
// Results are bit-identical to len(reqs) serial Measure calls — the same
// validation, counting formula, scaling, and rounding run per request; no
// grouping by objective or frequency cap is needed because the user count
// is independent of both (they only scale the counted statistic).
// Per-request failures are reported in their slot, never as a batch error.
func (p *Interface) MeasureMany(reqs []EstimateRequest) ([]Estimate, error) {
	return p.sizeMany(nil, DoorMeasure, reqs)
}

// MeasureManyCtx is MeasureMany under a trace context: when ctx carries a
// sampled span, the batch records a platform child span (plan-compile and
// kernel children) and per-slot provenance. With tracing disabled the
// two doors are byte-identical in behavior and within noise in cost — the
// only extra work is one context value lookup per batch.
func (p *Interface) MeasureManyCtx(ctx context.Context, reqs []EstimateRequest) ([]Estimate, error) {
	return p.sizeMany(trace.FromContext(ctx), DoorMeasure, reqs)
}

// EstimateMany is the advertiser-door equivalent of MeasureMany: batched
// Estimate calls under the advertiser rules.
func (p *Interface) EstimateMany(reqs []EstimateRequest) ([]Estimate, error) {
	return p.sizeMany(nil, DoorEstimate, reqs)
}

// sizeMany answers a batch through countMany, the whole batch compiled into
// one schedule over the whole universe, and puts each served count through
// ScaleAndRound, as on the serial door. Compiling in rawBatchSlots chunks
// instead cut an in-process campaign's peak RSS but slowed its repeat
// campaign by a fifth (DESIGN.md §9).
//
// parent is the caller's trace span (nil on untraced calls — the hot-path
// default, costing only the nil checks). All tracing work is per batch,
// never per spec, except provenance emission, which is gated on the parent
// being a sampled span of a provenance-collecting tracer.
func (p *Interface) sizeMany(parent *trace.Span, door Door, reqs []EstimateRequest) ([]Estimate, error) {
	span := trace.ChildOf(parent, "platform.size_many")
	if span != nil {
		defer span.End()
		span.Annotate("interface", p.cfg.Name)
		span.Annotate("door", door.String())
		span.AnnotateInt("specs", int64(len(reqs)))
	}
	out := make([]Estimate, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	p.mBatchSize.Observe(time.Duration(len(reqs)))
	factors := make([]scaleFactors, len(reqs))
	raw := p.countMany(span, door, reqs, nil, len(reqs), factors)
	// Sampled + provenance-collecting: one record per served slot, tying
	// the size to the canonical key, the compiled plan, and the trace.
	plog, tid := span.ProvenanceLog(), ""
	if plog != nil {
		tid = span.TraceID()
	}
	for i, r := range raw {
		if r.Err != nil {
			out[i].Err = r.Err
			continue
		}
		out[i].Size = p.ScaleAndRound(r.Count, factors[i].eligible, factors[i].impressions)
		if plog != nil {
			key := targeting.Canonical(reqs[i].Spec)
			plog.Add(trace.Provenance{
				Platform: p.cfg.Name,
				Key:      key,
				Source:   "platform",
				PlanHash: trace.PlanHash(p.cfg.Name, key),
				TraceID:  tid,
				Value:    out[i].Size,
			})
		}
	}
	return out, nil
}

// scaleFactors are one request's QueryParams factors.
type scaleFactors struct {
	eligible, impressions float64
}

// countMany is the compile-and-count body of both batch doors. Each
// request is validated under the door's rules (QueryParams), its factors
// stored in factors[i] when factors is non-nil. The valid specs compile
// chunk slots at a time with one union memo for the whole call, and each
// chunk's schedule executes over windows (nil counts the whole local
// universe). Every slot gets its raw count or the error the serial door
// would return for it. Validation stays per request and syntactic, never
// shared across specs with equal canonical forms: canonicalization
// collapses duplicate refs and clauses that the rules reject. With a
// non-nil span each chunk records a platform.plan_compile span (validation
// and plan lowering) and a platform.kernel span (CompileBatch and Exec).
func (p *Interface) countMany(span *trace.Span, door Door, reqs []EstimateRequest, windows []IndexRange, chunk int, factors []scaleFactors) []RawCount {
	out := make([]RawCount, len(reqs))
	plans := make([]*audience.Plan, 0, min(len(reqs), chunk))
	slot := make([]int, 0, cap(plans))
	var memo unionMemo
	for lo := 0; lo < len(reqs); lo += chunk {
		plans, slot = plans[:0], slot[:0]
		cs := trace.ChildOf(span, "platform.plan_compile")
		for i := lo; i < min(lo+chunk, len(reqs)); i++ {
			eligible, impressions, err := p.QueryParams(door, reqs[i])
			var plan *audience.Plan
			if err == nil {
				plan, err = p.compileSpec(reqs[i].Spec, &memo)
			}
			if err != nil {
				out[i].Err = err
				continue
			}
			if factors != nil {
				factors[i] = scaleFactors{eligible, impressions}
			}
			plans = append(plans, plan)
			slot = append(slot, i)
		}
		if cs != nil {
			cs.AnnotateInt("plans", int64(len(plans)))
			cs.End()
		}
		if len(plans) == 0 {
			continue
		}
		ks := trace.ChildOf(span, "platform.kernel")
		counts, tiles := audience.CompileBatch(plans).Exec(windows)
		if ks != nil {
			ks.AnnotateInt("blocks", int64(tiles))
			ks.End()
		}
		for k, i := range slot {
			out[i].Count = int64(counts[k])
		}
		served := int64(len(slot))
		p.queryCount.Add(served)
		p.doorCounter(door).Add(served)
		p.mPlansCompiled.Add(served)
		p.mBatchedQueries.Add(served)
		p.mBatchBlocks.Add(int64(tiles))
	}
	return out
}

// unionMemo holds the OR-clause unions of one call, by union key; the zero
// value is ready to use.
type unionMemo map[string]audience.Operand

// unionOperand resolves a multi-ref OR clause to a single shared operand.
// The union is keyed by the clause's canonical form (targeting.Canonical:
// refs sorted and deduplicated), so every plan of the call whose clause
// unions the same options references the same materialized set, which is
// what lets CompileBatch common-subexpression tails across plans. The union
// is a dense set on both postures, built once per call in memo.
func (p *Interface) unionOperand(cl targeting.Clause, memo *unionMemo) (audience.Operand, error) {
	key := targeting.Canonical(targeting.Spec{Include: []targeting.Clause{cl}})
	if op, ok := (*memo)[key]; ok {
		return op, nil
	}
	// Resolve in clause order so error positions match Interface.Audience.
	ops := make([]audience.Operand, len(cl))
	for i, r := range cl {
		op, err := p.operandFor(r)
		if err != nil {
			return audience.Operand{}, err
		}
		ops[i] = op
	}
	u := audience.Union(p.cfg.Universe.Size(), ops)
	if *memo == nil {
		*memo = make(unionMemo)
	}
	(*memo)[key] = u
	return u, nil
}

// compileSpec lowers one spec into a compiled plan, sharing the call's
// unions through memo. Shape and resolution errors are produced in the same
// order as Interface.Audience evaluates: clauses in include-then-exclude
// order, refs in clause order.
func (p *Interface) compileSpec(spec targeting.Spec, memo *unionMemo) (*audience.Plan, error) {
	if len(spec.Include) == 0 {
		return nil, targeting.ErrEmptySpec
	}
	var buf [8]audience.PlanClause // the audit's specs hold a few clauses
	clauses := buf[:0]
	lower := func(cl targeting.Clause, negate bool) error {
		if len(cl) == 0 {
			return targeting.ErrEmptyClause
		}
		var op audience.Operand
		var err error
		if len(cl) == 1 {
			op, err = p.operandFor(cl[0])
		} else {
			op, err = p.unionOperand(cl, memo)
		}
		if err != nil {
			return err
		}
		clauses = append(clauses, audience.PlanClause{Op: op, Negate: negate})
		return nil
	}
	for _, cl := range spec.Include {
		if err := lower(cl, false); err != nil {
			return nil, err
		}
	}
	for _, cl := range spec.Exclude {
		if err := lower(cl, true); err != nil {
			return nil, err
		}
	}
	return audience.CompilePlan(p.cfg.Universe.Size(), clauses), nil
}
