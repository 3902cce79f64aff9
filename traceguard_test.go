package repro_test

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
)

// TestCompiledBatchTracingOverhead is the PR 8 bench guard: with tracing
// compiled in but disabled (a rate-0 tracer installed process-wide, no span
// in the context), the compiled-batch hot loop must run within 2% of the
// bare MeasureMany door on the BenchmarkCompiledBatch workload. The
// disabled path's entire budget is one context lookup and nil-span checks
// per batch; this guard keeps future instrumentation honest about that.
//
// Methodology: wall-time A/B on shared CI hardware is dominated by
// scheduler and frequency noise (median-of-rounds ratios swing ±10% on a
// single vCPU), but noise only ever adds time. The guard therefore times
// many short interleaved chunks per door and compares the minima — the
// noise-free cost floors — which repeat within a fraction of a percent.
// Gated behind BENCH_GUARD=1 since it spins the CPU and asserts wall time.
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
	trace.SetDefault(trace.New(trace.Options{SampleRate: 0, Metrics: obs.NewRegistry()}))
	defer trace.SetDefault(nil)

	ctx := context.Background()
	bare := func() {
		if _, err := p.MeasureMany(reqs); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() {
		if _, err := p.MeasureManyCtx(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	}
	// Build the option slots through both doors before timing; every
	// timed iteration compiles its batch afresh.
	for i := 0; i < 5; i++ {
		bare()
		traced()
	}

	const chunkIters = 50 // ~5 ms per chunk, each batch compiled afresh
	const chunks = 120
	chunk := func(door func()) time.Duration {
		start := time.Now()
		for i := 0; i < chunkIters; i++ {
			door()
		}
		return time.Since(start)
	}
	minBare, minTraced := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < chunks; r++ {
		if d := chunk(bare); d < minBare {
			minBare = d
		}
		if d := chunk(traced); d < minTraced {
			minTraced = d
		}
	}
	ratio := float64(minTraced) / float64(minBare)
	t.Logf("compiled batch (64 specs × %d iters/chunk, %d chunks): bare floor %v, ctx-door floor %v, ratio %.4f",
		chunkIters, chunks, minBare, minTraced, ratio)
	if ratio > 1.02 {
		t.Fatalf("disabled-tracing overhead ratio %.4f exceeds 1.02 (bare floor %v, traced floor %v)",
			ratio, minBare, minTraced)
	}
}
