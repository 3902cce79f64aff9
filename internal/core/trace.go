package core

import (
	"context"

	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// ContextMeasurer is the optional trace-context extension of Provider:
// measure one spec with a context that may carry a trace span, so the
// provider can record child spans and propagate the trace downstream
// (in-process to the platform kernels, or over the wire via the
// X-Adaudit-Trace header). Implementations must be bit-identical to
// Measure; the context adds observability, never behavior.
type ContextMeasurer interface {
	MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error)
}

// ContextBatchMeasurer is the batched form of ContextMeasurer.
type ContextBatchMeasurer interface {
	MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []BatchResult
}

// MeasureCtx measures spec through p, upgrading to the provider's traced
// door only when ctx actually carries a span — untraced callers take
// exactly the Provider.Measure path.
func MeasureCtx(ctx context.Context, p Provider, spec targeting.Spec) (int64, error) {
	if trace.FromContext(ctx) != nil {
		if cm, ok := p.(ContextMeasurer); ok {
			return cm.MeasureCtx(ctx, spec)
		}
	}
	return p.Measure(spec)
}

// MeasureManyCtx is MeasureMany with a trace context: one traced batched
// call when the provider supports it and ctx carries a span, otherwise the
// untraced MeasureMany dispatch.
func MeasureManyCtx(ctx context.Context, p Provider, specs []targeting.Spec) []BatchResult {
	if trace.FromContext(ctx) != nil {
		if cbm, ok := p.(ContextBatchMeasurer); ok {
			return cbm.MeasureManyCtx(ctx, specs)
		}
	}
	return MeasureMany(p, specs)
}

// spanContext rebuilds a context carrying span for downstream traced calls
// (nil span returns a plain background context).
func spanContext(span *trace.Span) context.Context {
	return trace.NewContext(context.Background(), span)
}

// measureUpstream sends one serial miss upstream, through the provider's
// traced door when a span is live.
func measureUpstream(span *trace.Span, p Provider, spec targeting.Spec) (int64, error) {
	if span != nil {
		if cm, ok := p.(ContextMeasurer); ok {
			return cm.MeasureCtx(spanContext(span), spec)
		}
	}
	return p.Measure(spec)
}
