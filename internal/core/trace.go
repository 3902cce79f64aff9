package core

import (
	"context"

	"repro/internal/obs/trace"
	"repro/internal/targeting"
)

// ContextBatchMeasurer is the optional trace-context extension of
// Provider: measure a batch with a context that may carry a trace span, so
// the provider can record child spans and propagate the trace downstream
// (in-process to the platform kernels, or over the wire via the
// X-Adaudit-Trace header). Implementations must be bit-identical to
// MeasureMany; the context adds observability, never behavior. The cache
// probes for it only where it sends misses upstream under a live span. It
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
