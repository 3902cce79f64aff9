package repro_test

import (
	"context"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
)

// TestCompiledBatchTracingOverhead guards tracing's disabled cost: with
// tracing compiled in but disabled (a rate-0 tracer installed
// process-wide, no span in the context), the compiled-batch hot loop must
// run within 2% of the bare MeasureMany door on the BenchmarkCompiledBatch
// workload. The disabled path's entire budget is one context lookup and
// nil-span checks per batch; this guard keeps future instrumentation
// honest about that, and after its timed rounds it requires that the
// disabled tracer recorded no span and buffered no trace.
//
// Methodology: both doors run the same sizeMany, so wall-time noise
// (scheduler, frequency, garbage collection) dwarfs the difference being
// bounded. Each of many rounds therefore times one short chunk per door
// back to back, alternating which door goes first, and the guard bounds
// the median of the per-round ratios: noise that hits a whole round
// cancels in its ratio, and noise that hits one chunk moves the median
// little. Collection is kept out of the timed window — a GC before each
// round, none during it — which is sound only because both doors allocate
// the same per batch, and the guard checks that first. Gated behind
// BENCH_GUARD=1 since it spins the CPU and asserts wall time.
func TestCompiledBatchTracingOverhead(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the tracing-overhead guard")
	}
	p, specs := measureBench(t)
	reqs := make([]platform.EstimateRequest, len(specs))
	for i, s := range specs {
		reqs[i].Spec = s
	}

	// Tracing compiled in but disabled: tracer installed, nothing sampled,
	// and no root span ever started — the production default posture.
	reg := obs.NewRegistry()
	tracer := trace.New(trace.Options{SampleRate: 0, Metrics: reg})
	trace.SetDefault(tracer)
	defer trace.SetDefault(nil)

	ctx := context.Background()
	bare := func() { p.MeasureMany(reqs) }
	traced := func() { p.MeasureManyCtx(ctx, reqs) }
	// Build the option slots through both doors before measuring; every
	// timed iteration compiles its batch afresh.
	for i := 0; i < 5; i++ {
		bare()
		traced()
	}
	allocs := testing.AllocsPerRun(20, bare)
	if ctxAllocs := testing.AllocsPerRun(20, traced); ctxAllocs != allocs {
		t.Fatalf("doors allocate differently: bare %.0f, ctx door %.0f per batch", allocs, ctxAllocs)
	}

	const chunkIters = 50 // ~5 ms per chunk, each batch compiled afresh
	const rounds = 400
	chunk := func(door func()) time.Duration {
		start := time.Now()
		for i := 0; i < chunkIters; i++ {
			door()
		}
		return time.Since(start)
	}
	ratios := make([]float64, rounds)
	for r := range ratios {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var b, c time.Duration
		if r%2 == 0 {
			b = chunk(bare)
			c = chunk(traced)
		} else {
			c = chunk(traced)
			b = chunk(bare)
		}
		debug.SetGCPercent(gc)
		ratios[r] = float64(c) / float64(b)
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	t.Logf("compiled batch (64 specs × %d iters/chunk, %d rounds, %.0f allocs/batch per door): ctx-door/bare ratio median %.4f, quartiles %.4f–%.4f",
		chunkIters, rounds, allocs, median, ratios[rounds/4], ratios[3*rounds/4])
	if median > 1.02 {
		t.Fatalf("disabled-tracing overhead: median ratio %.4f exceeds 1.02", median)
	}
	// Disabled means nothing recorded, whatever the timings say.
	if n := reg.CounterValue("trace_spans_recorded_total"); n != 0 || tracer.Len() != 0 {
		t.Fatalf("disabled tracing recorded %d spans and buffered %d traces", n, tracer.Len())
	}
}
