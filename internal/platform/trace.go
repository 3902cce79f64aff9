package platform

import (
	"context"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// MeasureCtx is Measure under a trace context: when ctx carries a sampled
// span the measurement records a platform child span and a provenance
// record; untraced contexts take the exact serial path at the cost of one
// context lookup.
func (p *Interface) MeasureCtx(ctx context.Context, req EstimateRequest) (int64, error) {
	return p.sizeCtx(ctx, req, p.MeasurementRules(), p.mMeasureQueries, "measure")
}

// EstimateCtx is Estimate under a trace context.
func (p *Interface) EstimateCtx(ctx context.Context, req EstimateRequest) (int64, error) {
	return p.sizeCtx(ctx, req, p.cfg.AdvertiserRules, p.mEstimateQueries, "estimate")
}

// sizeCtx runs one serial size query under an optional trace span. The
// measurement itself is the untraced code verbatim (estimateExact +
// roundAndCount), so traced and untraced calls are bit-identical.
func (p *Interface) sizeCtx(ctx context.Context, req EstimateRequest, rules targeting.Rules, queries *obs.Counter, door string) (int64, error) {
	span := trace.ChildOf(trace.FromContext(ctx), "platform."+door)
	v, err := p.estimateExact(req, rules)
	if err != nil {
		if span != nil {
			span.Annotate("interface", p.cfg.Name)
			span.SetError(err)
			span.End()
		}
		return 0, err
	}
	size := p.roundAndCount(v, queries)
	if span != nil {
		span.Annotate("interface", p.cfg.Name)
		if plog := span.ProvenanceLog(); plog != nil {
			plog.Add(trace.Provenance{
				Platform: p.cfg.Name,
				Key:      requestKey(req),
				Source:   "platform",
				TraceID:  span.TraceID(),
				Value:    size,
			})
		}
		span.End()
	}
	return size, nil
}
