// Package core implements the paper's audit methodology — the primary
// contribution of the reproduction. Given only the measurement channel the
// live platforms give an auditor (targeting spec in, rounded audience-size
// estimate out), it computes representation ratios and recalls (§3),
// scans individual targeting options (§4.2), discovers skewed targeting
// compositions greedily (§3, §4.1, §4.3), measures overlap between skewed
// audiences and estimates union recall by inclusion–exclusion (§4.3,
// Table 1), sweeps the removal of skewed individual options (Fig. 3/6), and
// reproduces the estimate consistency and granularity studies (§3).
package core

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// Provider is the audit's only view of an ad platform: the option lists the
// paper scraped from the targeting UI, plus the size-estimate call it
// automated, as a serial door and a batch door. Every provider batches:
// the auditor's fan-outs (scans, compositions, overlaps) go out as batches
// only. Implementations exist for in-process simulators (this package),
// remote platforms over HTTP (internal/adapi) and sharded clusters
// (internal/cluster).
type Provider interface {
	// Name identifies the platform interface.
	Name() string
	// AttributeNames lists the display names of the default attribute list.
	AttributeNames() []string
	// TopicNames lists topic options (empty off Google).
	TopicNames() []string
	// Measure returns the platform's rounded, platform-scale audience-size
	// estimate for the spec, under the auditor's measurement rules.
	Measure(spec targeting.Spec) (int64, error)
	// MeasureMany answers many specs in one call, slot-for-slot equal to
	// serial Measure calls.
	BatchMeasurer
	// CrossFeature reports whether AND-composition must span the attribute
	// and topic features (Google) rather than pair attributes (the rest).
	CrossFeature() bool
}

// platformProvider adapts an in-process simulated interface.
type platformProvider struct {
	p *platform.Interface
}

var _ Provider = (*platformProvider)(nil)

// NewPlatformProvider returns a Provider backed by an in-process simulated
// interface. Measurements use the interface's auditor-facing rules, exactly
// as the paper measured Facebook's restricted interface through the normal
// interface's equivalent options.
func NewPlatformProvider(p *platform.Interface) Provider {
	return &platformProvider{p: p}
}

// PlatformProviders returns a Provider for each of d's interfaces, in
// presentation order.
func PlatformProviders(d *platform.Deployment) []Provider {
	out := make([]Provider, 0, 4)
	for _, p := range d.Interfaces() {
		out = append(out, NewPlatformProvider(p))
	}
	return out
}

func (pp *platformProvider) Name() string { return pp.p.Name() }

func (pp *platformProvider) AttributeNames() []string {
	attrs := pp.p.Catalog().Attributes
	out := make([]string, len(attrs))
	for i := range attrs {
		out[i] = attrs[i].Name
	}
	return out
}

func (pp *platformProvider) TopicNames() []string {
	topics := pp.p.Catalog().Topics
	out := make([]string, len(topics))
	for i := range topics {
		out[i] = topics[i].Name
	}
	return out
}

func (pp *platformProvider) Measure(spec targeting.Spec) (int64, error) {
	return pp.p.Measure(platform.EstimateRequest{Spec: spec})
}

func (pp *platformProvider) CrossFeature() bool {
	return !pp.p.Rules().AndWithinFeature
}

// cachingProvider memoizes measurements by canonical spec. The greedy
// discovery and the overlap analyses re-measure many identical specs; the
// paper likewise limited its query load by avoiding redundant calls.
// Concurrent misses on the same key collapse into one upstream call
// (singleflight): the first caller claims the key and measures, later
// callers wait on the in-flight result, and calls counts unique misses
// rather than racing callers. Both doors run one body, measureMany.
type cachingProvider struct {
	Provider
	mu       sync.Mutex
	sizes    map[string]int64
	inflight map[string]*inflightCall
	calls    int64

	// store, when set (NewStoredProviderWith), is the durable second cache
	// tier: disk hits make no upstream call, upstream answers are appended.
	store MeasurementStore

	// Cache observability, resolved once per provider (labeled by the
	// platform name) so the lookup path pays one atomic add per outcome.
	mHits        *obs.Counter   // served from the size cache
	mMisses      *obs.Counter   // claimed the key and went upstream
	mCollapsed   *obs.Counter   // waited on another caller's in-flight miss
	mUpstream    *obs.Histogram // upstream latency, one observation per upstream call
	mStoreHits   *obs.Counter   // served from the durable store
	mStoreMisses *obs.Counter   // absent from the store, went upstream
	mStoreErrors *obs.Counter   // store appends that failed (measurement kept)
}

// inflightCall is one upstream measurement in progress; done closes once v
// and err are set. The claims of one cache call share its done channel,
// since one upstream call answers them all.
type inflightCall struct {
	done chan struct{}
	v    int64
	err  error
}

// NewCachingProviderWith wraps p with a measurement cache whose hit, miss
// and latency metrics land in reg (nil selects obs.Default()).
func NewCachingProviderWith(p Provider, reg *obs.Registry) Provider {
	if reg == nil {
		reg = obs.Default()
	}
	lbl := obs.L("platform", p.Name())
	return &cachingProvider{
		Provider:   p,
		sizes:      make(map[string]int64),
		inflight:   make(map[string]*inflightCall),
		mHits:      reg.Counter("audit_cache_hits_total", lbl),
		mMisses:    reg.Counter("audit_cache_misses_total", lbl),
		mCollapsed: reg.Counter("audit_cache_collapsed_total", lbl),
		mUpstream:  reg.Histogram("audit_upstream_seconds", lbl),
	}
}

// Measure is a one-slot measureMany call: one hit or one miss, and a miss
// is one upstream latency observation, as for every batch.
func (cp *cachingProvider) Measure(spec targeting.Spec) (int64, error) {
	var buf [1]BatchResult
	r := cp.measureMany(nil, []targeting.Spec{spec}, buf[:0])[0]
	return r.Size, r.Err
}

// UpstreamCalls reports how many misses reached the underlying provider, if
// the provider is a caching wrapper; otherwise it returns -1.
func UpstreamCalls(p Provider) int64 {
	cp, ok := p.(*cachingProvider)
	if !ok {
		return -1
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.calls
}

// CacheStats is a point-in-time view of one caching provider's traffic —
// the numbers an auditor steers their query load by (the paper limited
// "both the count and rate of API queries", §5).
type CacheStats struct {
	// Hits counts measurements served from the size cache.
	Hits int64
	// Misses counts measurements that went upstream.
	Misses int64
	// Collapsed counts callers that waited on another caller's identical
	// in-flight miss (singleflight).
	Collapsed int64
	// StoreHits counts measurements served from the durable store — the
	// queries a resumed audit did not re-pay (0 when no store is
	// attached).
	StoreHits int64
	// StoreMisses counts store lookups that fell through to upstream.
	StoreMisses int64
	// StoreErrors counts store appends that failed; the measurements were
	// kept but will not survive a restart.
	StoreErrors int64
	// Upstream summarizes upstream latency, one observation per call that
	// sent misses upstream.
	Upstream obs.HistogramSnapshot
}

// HitRate returns the fraction of lookups served without an upstream call
// (memory hits, store hits, and collapsed waits over all lookups); 0 when
// idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.StoreHits + s.Misses + s.Collapsed
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.StoreHits+s.Collapsed) / float64(total)
}

// StatsOf reports a caching provider's cache statistics. The second result
// is false when p is not a caching wrapper.
func StatsOf(p Provider) (CacheStats, bool) {
	cp, ok := p.(*cachingProvider)
	if !ok {
		return CacheStats{}, false
	}
	st := CacheStats{
		Hits:      cp.mHits.Value(),
		Misses:    cp.mMisses.Value(),
		Collapsed: cp.mCollapsed.Value(),
		Upstream:  cp.mUpstream.Snapshot(),
	}
	if cp.store != nil {
		st.StoreHits = cp.mStoreHits.Value()
		st.StoreMisses = cp.mStoreMisses.Value()
		st.StoreErrors = cp.mStoreErrors.Value()
	}
	return st, true
}
