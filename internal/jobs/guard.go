package jobs

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/targeting"
)

// guardProvider sits between a job's measurement cache and the raw
// platform provider: every upstream query passes the job's cancellation
// context and the tenant's cumulative query budget before reaching the
// platform, and successful queries are counted for fair-share accounting.
// Cache and store hits never reach the guard, so replayed work is free —
// exactly the accounting the measurement cache itself uses.
//
// Both size doors are guarded: the embedded provider supplies the name,
// option lists and composition rule, and embedding would promote its
// Measure and MeasureMany too, past the tenant budget, were the guard not
// to define its own. The guard returns the raw provider's values
// unchanged, so a job's measurements are bit-identical to an unguarded run
// of the same spec.
type guardProvider struct {
	core.Provider
	ctx     context.Context
	tenant  *tenantState
	queries *atomic.Int64 // per-run upstream queries (fair-share cost)
}

var _ core.Provider = (*guardProvider)(nil)

// Measure is a one-slot MeasureMany call: the same cancellation check,
// charge, refund and query count as a batch.
func (g *guardProvider) Measure(spec targeting.Spec) (int64, error) {
	r := g.MeasureMany([]targeting.Spec{spec})[0]
	return r.Size, r.Err
}

// MeasureMany forwards a batch, so guarded jobs keep the tiled-kernel
// path. The whole batch is admitted or refused atomically against the
// budget; failed slots are refunded afterwards.
func (g *guardProvider) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	fail := func(err error) []core.BatchResult {
		out := make([]core.BatchResult, len(specs))
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if err := g.ctx.Err(); err != nil {
		return fail(err)
	}
	n := int64(len(specs))
	if err := g.tenant.charge(n); err != nil {
		return fail(err)
	}
	res := g.Provider.MeasureMany(specs)
	var failed int64
	for _, r := range res {
		if r.Err != nil {
			failed++
		}
	}
	g.tenant.refund(failed)
	g.queries.Add(n - failed)
	return res
}

// guard wraps a raw provider for one job run.
func guard(ctx context.Context, t *tenantState, queries *atomic.Int64, p core.Provider) core.Provider {
	return &guardProvider{Provider: p, ctx: ctx, tenant: t, queries: queries}
}
