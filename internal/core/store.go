package core

import "repro/internal/obs"

// MeasurementStore is a durable archive of size-estimate measurements,
// keyed by platform name and canonical spec form. internal/store.Store
// satisfies it; the audit layer depends only on this interface so the
// storage format stays swappable and core stays dependency-free.
//
// The store is the audit's crash-safe memory across process restarts: the
// paper's methodology limits upstream API calls (§5, Ethics), and a
// campaign that dies mid-scan must not re-query answers it already holds.
// A Get hit is treated exactly like an in-memory cache hit — served
// without an upstream call.
type MeasurementStore interface {
	// GetMeasurement returns the persisted size for a platform-qualified
	// canonical spec, if present.
	GetMeasurement(platform, canonicalSpec string) (int64, bool)
	// PutMeasurement durably records a measurement. It should not return
	// until the record is durable; errors are reported but must not
	// invalidate the measurement itself.
	PutMeasurement(platform, canonicalSpec string, size int64) error
}

// NewStoredProviderWith returns a Provider whose measurement path has three
// tiers: the in-memory cache, the durable store (a disk hit fills the
// memory tier and makes no upstream call), and the upstream platform
// (counted in UpstreamCalls; successful answers are appended to the store
// before the next restart can need them). A nil st degrades to the plain
// caching provider; if p is already a caching provider the store is
// attached in place, preserving its cache contents and call count. Metrics
// land in reg (nil selects obs.Default()).
func NewStoredProviderWith(p Provider, st MeasurementStore, reg *obs.Registry) Provider {
	if reg == nil {
		reg = obs.Default()
	}
	cp, ok := p.(*cachingProvider)
	if !ok {
		cp = NewCachingProviderWith(p, reg).(*cachingProvider)
	}
	if st == nil {
		return cp
	}
	lbl := obs.L("platform", cp.Provider.Name())
	cp.mu.Lock()
	cp.store = st
	cp.mStoreHits = reg.Counter("audit_store_hits_total", lbl)
	cp.mStoreMisses = reg.Counter("audit_store_misses_total", lbl)
	cp.mStoreErrors = reg.Counter("audit_store_append_errors_total", lbl)
	cp.mu.Unlock()
	return cp
}
