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
// "store"-sourced provenance record: the platform was never queried.
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

// measure is the auditor door's one path, behind /measure (a one-slot
// call) and /measure-batch. With a store configured, persisted answers are
// served without touching the platform (its query counters stay flat), and
// the server span under a distributed trace carries their store_hits
// count; the misses reach the platform as one MeasureManyCtx call under
// ctx, and their fresh answers are appended before they are returned.
func (h *ifaceHandler) measure(ctx context.Context, reqs []platform.EstimateRequest) []platform.Estimate {
	if h.store == nil {
		return h.p.MeasureManyCtx(ctx, reqs)
	}
	span := trace.FromContext(ctx)
	out := make([]platform.Estimate, len(reqs))
	missIdx := make([]int, 0, len(reqs))
	miss := make([]platform.EstimateRequest, 0, len(reqs))
	for k, req := range reqs {
		if v, ok := h.storeGet(span, measureStoreKey(req)); ok {
			out[k].Size = v
			continue
		}
		missIdx = append(missIdx, k)
		miss = append(miss, req)
	}
	span.AnnotateInt("store_hits", int64(len(reqs)-len(miss)))
	if len(miss) == 0 {
		return out
	}
	for j, e := range h.p.MeasureManyCtx(ctx, miss) {
		out[missIdx[j]] = e
		if e.Err == nil {
			h.storePut(measureStoreKey(miss[j]), e.Size)
		}
	}
	return out
}
