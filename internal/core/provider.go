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
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
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

// MeasureCtx implements ContextMeasurer through the platform's traced
// serial door.
func (pp *platformProvider) MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error) {
	return pp.p.MeasureCtx(ctx, platform.EstimateRequest{Spec: spec})
}

func (pp *platformProvider) CrossFeature() bool {
	return !pp.p.Rules().AndWithinFeature
}

// cachingProvider memoizes Measure by canonical spec. The greedy discovery
// and the overlap analyses re-measure many identical specs; the paper
// likewise limited its query load by avoiding redundant calls. Concurrent
// misses on the same key collapse into one upstream call (singleflight):
// the first caller claims the key and measures, later callers wait on the
// in-flight result, and calls counts unique misses rather than racing
// callers.
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
	mUpstream    *obs.Histogram // upstream Measure latency (misses only)
	mStoreHits   *obs.Counter   // served from the durable store
	mStoreMisses *obs.Counter   // absent from the store, went upstream
	mStoreErrors *obs.Counter   // store appends that failed (measurement kept)
}

// inflightCall is one upstream measurement in progress; done closes once v
// and err are set.
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

func (cp *cachingProvider) Measure(spec targeting.Spec) (int64, error) {
	return cp.measure(nil, spec)
}

// provDone ends a cache-layer span and emits its provenance record —
// only for outcomes the cache itself served (hit/store/inflight);
// misses are recorded by the upstream layer that actually measured, so
// one trace shows the full provenance chain without double-counting.
func (cp *cachingProvider) provDone(span *trace.Span, key, source string, v int64, err error) {
	if span == nil {
		return
	}
	span.Annotate("outcome", source)
	span.SetError(err)
	if err == nil && source != "miss" {
		if plog := span.ProvenanceLog(); plog != nil {
			plog.Add(trace.Provenance{
				Platform: cp.Provider.Name(),
				Key:      key,
				Source:   source,
				TraceID:  span.TraceID(),
				Value:    v,
			})
		}
	}
	span.End()
}

func (cp *cachingProvider) measure(parent *trace.Span, spec targeting.Spec) (int64, error) {
	span := trace.ChildOf(parent, "cache.measure")
	key := targeting.Canonical(spec)
	cp.mu.Lock()
	if v, ok := cp.sizes[key]; ok {
		cp.mu.Unlock()
		cp.mHits.Inc()
		cp.provDone(span, key, "cache", v, nil)
		return v, nil
	}
	if c, ok := cp.inflight[key]; ok {
		cp.mu.Unlock()
		cp.mCollapsed.Inc()
		<-c.done
		cp.provDone(span, key, "inflight", c.v, c.err)
		return c.v, c.err
	}
	if cp.store != nil {
		// Disk tier: an answer a previous run already paid for. It fills
		// the memory tier and makes no upstream call — the paper's §5
		// limit counts load placed on the platform, and a disk hit places
		// none. The lookup is an in-memory index read, so holding the lock
		// keeps racing callers collapsed onto one store probe.
		if v, ok := cp.store.GetMeasurement(cp.Provider.Name(), key); ok {
			cp.sizes[key] = v
			cp.mu.Unlock()
			cp.mStoreHits.Inc()
			cp.provDone(span, key, "store", v, nil)
			return v, nil
		}
	}
	// Claim the key and count the call before releasing the lock, so
	// racing callers of the same key collapse onto this one.
	cp.calls++
	c := &inflightCall{done: make(chan struct{})}
	cp.inflight[key] = c
	cp.mu.Unlock()
	cp.mMisses.Inc()
	if cp.store != nil {
		cp.mStoreMisses.Inc()
	}

	start := time.Now()
	v, err := measureUpstream(span, cp.Provider, spec)
	d := time.Since(start)
	cp.mUpstream.ObserveWithExemplar(d, span.TraceID())

	if err == nil && cp.store != nil {
		// Persist before publishing: once another caller can read the
		// answer from memory, a crash must not be able to lose it — the
		// resumed run would otherwise re-query a spec this run already
		// reported on. Append failures (disk full, torn device) are
		// counted but do not fail the measurement; the audit degrades to
		// in-memory caching.
		if serr := cp.store.PutMeasurement(cp.Provider.Name(), key, v); serr != nil {
			cp.mStoreErrors.Inc()
		}
	}

	cp.mu.Lock()
	if err == nil {
		cp.sizes[key] = v
	} else {
		// Refund failed calls: they consumed no upstream answer, and the
		// pre-singleflight behaviour likewise counted successes only.
		cp.calls--
		v = 0
	}
	delete(cp.inflight, key)
	cp.mu.Unlock()
	c.v, c.err = v, err
	close(c.done)
	cp.provDone(span, key, "miss", v, err)
	return v, err
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
	// Upstream summarizes upstream Measure latency over the misses.
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
