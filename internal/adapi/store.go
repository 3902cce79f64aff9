package adapi

import (
	"context"
	"strconv"

	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// measureStoreKey derives the store key for one auditor-door request. The
// spec collapses to its canonical form — every spelling of the same formula
// shares a record — and the non-spec estimate parameters are appended as
// NUL-separated qualifiers, since the platforms' answers depend on them.
// The qualifiers also keep server-door keys disjoint from the bare
// canonical-spec keys an auditing client writes, so a server and a client
// pointed at the same directory can never read each other's records. The
// frequency cap normalizes 0 to its documented default of 1.
func measureStoreKey(req platform.EstimateRequest) string {
	cap := req.FrequencyCapPerMonth
	if cap == 0 {
		cap = 1
	}
	return targeting.Canonical(req.Spec) +
		"\x00obj=" + string(req.Objective) +
		"\x00cap=" + strconv.Itoa(cap)
}

// storeGet looks one auditor-door answer up in the store. A hit counts
// toward the store-hit metric and, under a distributed trace, leaves a
// "store"-sourced provenance record: the platform was never queried. Both
// auditor doors, /measure and /measure-batch, read the store through it.
func (h *ifaceHandler) storeGet(span *trace.Span, key string) (int64, bool) {
	v, ok := h.store.GetMeasurement(h.p.Name(), key)
	if !ok {
		return 0, false
	}
	h.mStoreHits.Inc()
	if plog := span.ProvenanceLog(); plog != nil {
		plog.Add(trace.Provenance{
			Platform: h.p.Name(),
			Key:      key,
			Source:   "store",
			TraceID:  span.TraceID(),
			Value:    v,
		})
	}
	return v, true
}

// storePut appends a fresh answer. Append failures degrade the door to
// uncached serving and are counted, never surfaced to the client — the
// measurement itself is still good.
func (h *ifaceHandler) storePut(key string, v int64) {
	if err := h.store.PutMeasurement(h.p.Name(), key, v); err != nil {
		h.mStoreErrors.Inc()
		h.opts.logf("adapi: %s: store append failed: %v", h.p.Name(), err)
	}
}

// storedMeasureCtx is the auditor door's measurement path when a store is
// configured: persisted answers are served without touching the platform
// (its query counters stay flat), fresh answers go through the platform's
// context door and are appended before they are returned. Under a
// distributed trace, a store hit also annotates the server span store=hit;
// misses record the platform's own span and provenance.
func (h *ifaceHandler) storedMeasureCtx(ctx context.Context, req platform.EstimateRequest) (int64, error) {
	key := measureStoreKey(req)
	span := trace.FromContext(ctx)
	if v, ok := h.storeGet(span, key); ok {
		span.Annotate("store", "hit")
		return v, nil
	}
	v, err := h.p.MeasureCtx(ctx, req)
	if err == nil {
		h.storePut(key, v)
	}
	return v, err
}
