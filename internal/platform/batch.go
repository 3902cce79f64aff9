package platform

import (
	"context"
	"sync"
	"time"

	"repro/internal/audience"
	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

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
// sampled span, the batch records a platform child span (plan-cache and
// kernel annotations) and per-slot provenance. With tracing disabled the
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

// sizeMany answers a batch through the query compiler: every valid spec
// resolves to a cached compiled plan (keyed by its canonical form), the
// batch of plans is frozen into a cached execution schedule, and only the
// kernels run per call. Validation stays per-request and syntactic — the
// canonical key collapses duplicate refs and clauses that the rules reject,
// so validation outcomes must never be shared across specs with equal
// keys — and each served count goes through ScaleAndRound, as on the
// serial door. A compressed catalog retains no plans: it compiles every
// batch afresh and needs no canonical keys.
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

	// Pass 1: per-request parameter validation through QueryParams, as on
	// every door.
	eligible := make([]float64, len(reqs))
	impressions := make([]float64, len(reqs))
	for i := range reqs {
		e, f, err := p.QueryParams(door, reqs[i])
		if err != nil {
			out[i].Err = err
			continue
		}
		eligible[i], impressions[i] = e, f
	}

	// Pass 2: optimistic schedule lookup. The batch's schedule key is the
	// concatenation of the param-valid slots' canonical keys in slot order;
	// a hit means this exact spec sequence compiled before with every plan
	// cache-stable, so the frozen schedule executes with no per-slot plan
	// resolution at all — the steady-state audit loop's path. The key buffer
	// and slot bookkeeping come from a pool: the loop runs per batch, and
	// growing a fresh 2KB key by appends would cost more than the lookup.
	bs := batchScratchPool.Get().(*batchScratch)
	valid := bs.valid[:0]
	keys := bs.keys[:0]
	schedKey := bs.schedKey[:0]
	for len(keys) < len(reqs) {
		keys = append(keys, "")
	}
	for i := range reqs {
		if out[i].Err != nil {
			continue
		}
		valid = append(valid, i)
		keys[i] = ""
		if p.plans == nil {
			continue
		}
		key := requestKey(reqs[i])
		keys[i] = key
		schedKey = append(schedKey, key...)
		schedKey = append(schedKey, 0)
	}

	var counts []int
	var slot []int
	tiles := 0
	if pb, ok := p.schedule(schedKey); ok && len(valid) > 0 {
		p.mPlanHits.Add(int64(len(valid)))
		span.Annotate("sched_cache", "hit")
		ks := trace.ChildOf(span, "platform.kernel")
		counts, tiles = pb.Exec(nil)
		if ks != nil {
			ks.AnnotateInt("blocks", int64(tiles))
			ks.End()
		}
		slot = valid
	} else {
		// Miss: resolve each slot's plan (cached by its canonical key),
		// compile the schedule, and freeze it under the batch key — but only
		// when every param-valid slot resolved to a cache-stable plan. A
		// cached schedule therefore never owns a resolution error (whose
		// identity depends on the request's literal clause order, not its
		// canonical form) or a transient custom-audience plan.
		span.Annotate("sched_cache", "miss")
		cs := trace.ChildOf(span, "platform.plan_compile")
		plans := make([]*audience.Plan, 0, len(valid))
		slot = make([]int, 0, len(valid))
		schedulable := p.plans != nil
		planMisses := int64(0)
		var memo unionMemo
		for _, i := range valid {
			plan, cached, err := p.planFor(keys[i], reqs[i].Spec, &memo)
			if err != nil {
				out[i].Err = err
				schedulable = false
				continue
			}
			plans = append(plans, plan)
			slot = append(slot, i)
			if !cached {
				schedulable = false
				planMisses++
			}
		}
		if cs != nil {
			cs.AnnotateInt("plans", int64(len(plans)))
			cs.AnnotateInt("plan_cache_misses", planMisses)
			cs.End()
		}
		if len(plans) > 0 {
			pb := audience.CompileBatch(plans)
			if schedulable {
				p.plans.scheds.add(string(schedKey), pb)
			}
			ks := trace.ChildOf(span, "platform.kernel")
			counts, tiles = pb.Exec(nil)
			if ks != nil {
				ks.AnnotateInt("blocks", int64(tiles))
				ks.End()
			}
		}
	}
	if len(slot) > 0 {
		n := int64(len(slot))
		p.queryCount.Add(n)
		p.doorCounter(door).Add(n)
		p.mBatchedQueries.Add(n)
		p.mBatchBlocks.Add(int64(tiles))
	}

	for k, i := range slot {
		out[i].Size = p.ScaleAndRound(int64(counts[k]), eligible[i], impressions[i])
	}
	if plog := span.ProvenanceLog(); plog != nil {
		// Sampled + provenance-collecting: one record per served slot, tying
		// the size to the canonical key, the compiled plan, and the trace.
		tid := span.TraceID()
		for _, i := range slot {
			key := keys[i]
			if key == "" {
				key = requestKey(reqs[i])
			}
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
	bs.valid, bs.keys, bs.schedKey = valid, keys, schedKey
	batchScratchPool.Put(bs)
	return out, nil
}

// schedule returns the cached schedule for a batch key; interfaces with a
// compressed catalog cache none.
func (p *Interface) schedule(key []byte) (*audience.PlanBatch, bool) {
	if p.plans == nil {
		return nil, false
	}
	return p.plans.scheds.getBytes(key)
}

// requestKey returns a request's canonical key: the one its caller
// precomputed, else targeting.Canonical of its spec.
func requestKey(req EstimateRequest) string {
	if req.CacheKey != "" {
		return req.CacheKey
	}
	return targeting.Canonical(req.Spec)
}

// batchScratch is sizeMany's pooled per-batch bookkeeping: the valid-slot
// list, the per-slot canonical keys, and the concatenated schedule key.
type batchScratch struct {
	valid    []int
	keys     []string
	schedKey []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}
