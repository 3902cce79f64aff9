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
// Measure; the context adds observability, never behavior. The measurement
// cache probes for it only where it sends a serial miss upstream under a
// live span (measureUpstream).
type ContextMeasurer interface {
	MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error)
}

// ContextBatchMeasurer is the batched form of ContextMeasurer, probed only
// where the cache sends a batch of misses upstream under a live span. It
// stays optional: were every Provider to carry it, every wrapper would
// have to define a traced batch door, or embedding would promote the
// wrapped provider's door past the wrapper (the jobs guard's budget).
type ContextBatchMeasurer interface {
	MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []BatchResult
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
