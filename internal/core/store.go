package core

import "repro/internal/obs"

// MeasurementStore is a durable archive of size-estimate measurements,
// keyed by platform name and canonical spec form. internal/store.Store
// satisfies it; the audit layer depends only on this interface so the
// storage format stays swappable and core stays dependency-free.
//
// The store is the audit's crash-safe memory across process restarts: the
// paper's methodology caps upstream API calls (§5, Ethics), and a campaign
// that dies mid-scan must not re-pay its query budget for answers it
// already holds. A Get hit is treated exactly like an in-memory cache hit —
// served without an upstream call and without charging the query budget.
type MeasurementStore interface {
	// GetMeasurement returns the persisted size for a platform-qualified
	// canonical spec, if present.
	GetMeasurement(platform, canonicalSpec string) (int64, bool)
	// PutMeasurement durably records a measurement. It should not return
	// until the record is durable; errors are reported but must not
	// invalidate the measurement itself.
	PutMeasurement(platform, canonicalSpec string, size int64) error
}

// NewStoredProvider wraps p with the standard measurement cache backed by a
// durable store (see NewStoredProviderWith); metrics land in the
// process-wide registry.
func NewStoredProvider(p Provider, st MeasurementStore) Provider {
	return NewStoredProviderWith(p, st, nil)
}

// NewStoredProviderWith returns a Provider whose measurement path has three
// tiers: the in-memory cache (free), the durable store (a disk hit fills
// the memory tier and charges no query budget), and the upstream platform
// (budget-charged; successful answers are appended to the store before the
// next restart can need them). A nil st degrades to the plain caching
// provider; if p is already a caching provider the store is attached in
// place, preserving its cache contents and query budget.
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

// StoreOf returns the durable store behind a provider, if it has one.
func StoreOf(p Provider) (MeasurementStore, bool) {
	cp, ok := p.(*cachingProvider)
	if !ok || cp.store == nil {
		return nil, false
	}
	return cp.store, true
}
