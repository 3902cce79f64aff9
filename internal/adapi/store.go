package adapi

import (
	"context"
	"strconv"

	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// MeasurementStore is the durable archive the server can back its auditor
// door with. It is structurally identical to core.MeasurementStore (and
// satisfied by internal/store.Store) but declared here so adapi depends on
// neither package: the server only needs Get/Put against a platform-
// qualified canonical key.
type MeasurementStore interface {
	GetMeasurement(platform, canonicalKey string) (int64, bool)
	PutMeasurement(platform, canonicalKey string, size int64) error
}

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

// storedMeasureCtx is the auditor door's measurement path when a store is
// configured: persisted answers are served without touching the platform
// (its query counters stay flat), fresh answers go through the platform's
// context door and are appended before they are returned. Append failures
// degrade the door to uncached serving and are counted, never surfaced to
// the client — the measurement itself is still good. Under a distributed
// trace, store-tier hits annotate the server span and record
// "store"-sourced provenance (the platform was never queried); misses
// record the platform's own span and provenance.
func (h *ifaceHandler) storedMeasureCtx(ctx context.Context, req platform.EstimateRequest) (int64, error) {
	key := measureStoreKey(req)
	if v, ok := h.store.GetMeasurement(h.p.Name(), key); ok {
		h.mStoreHits.Inc()
		span := trace.FromContext(ctx)
		span.Annotate("store", "hit")
		if plog := span.ProvenanceLog(); plog != nil {
			plog.Add(trace.Provenance{
				Platform: h.p.Name(),
				Key:      key,
				Source:   "store",
				TraceID:  span.TraceID(),
				Value:    v,
			})
		}
		return v, nil
	}
	v, err := h.p.MeasureCtx(ctx, req)
	if err != nil {
		return v, err
	}
	if serr := h.store.PutMeasurement(h.p.Name(), key, v); serr != nil {
		h.mStoreErrors.Inc()
		h.opts.logf("adapi: %s: store append failed: %v", h.p.Name(), serr)
	}
	return v, nil
}
