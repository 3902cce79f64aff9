package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/targeting"
)

// TestRefundOnErrorUnderConcurrency: failed upstream calls are refunded even
// when many goroutines race distinct failing keys, so UpstreamCalls only
// ever counts answers actually received.
func TestRefundOnErrorUnderConcurrency(t *testing.T) {
	boom := errors.New("boom")
	sp := &slowProvider{attrs: []string{"a"}, fail: func(spec targeting.Spec) error {
		// Odd attribute ids always fail upstream.
		refs := targeting.Refs(spec)
		if len(refs) == 1 && refs[0].ID%2 == 1 {
			return boom
		}
		return nil
	}}
	reg := obs.NewRegistry()
	cp := NewCachingProviderWith(sp, reg)

	const keys = 16 // 8 even (succeed), 8 odd (fail)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for round := 0; round < 2; round++ {
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := cp.Measure(targeting.Attr(i)); err != nil {
					if !errors.Is(err, boom) {
						t.Errorf("unexpected error: %v", err)
					}
					failures.Add(1)
				}
			}(i)
		}
	}
	wg.Wait()
	// Only the 8 even keys leave a charge behind; every odd-key attempt was
	// refunded on failure.
	if got := UpstreamCalls(cp); got != keys/2 {
		t.Errorf("UpstreamCalls = %d, want %d (failures refunded)", got, keys/2)
	}
	if failures.Load() == 0 {
		t.Error("no failing calls observed; test exercised nothing")
	}
	// Refunded keys are retryable: flip the provider to succeed and re-ask.
	sp.fail = nil
	if _, err := cp.Measure(targeting.Attr(1)); err != nil {
		t.Errorf("retry of refunded key: %v", err)
	}
	if got := UpstreamCalls(cp); got != keys/2+1 {
		t.Errorf("UpstreamCalls after retry = %d, want %d", got, keys/2+1)
	}
}

// TestNonCachingProviderIntrospection: the call-count and stats helpers
// answer honestly for providers without a cache wrapper.
func TestNonCachingProviderIntrospection(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a"}}
	if got := UpstreamCalls(sp); got != -1 {
		t.Errorf("UpstreamCalls(non-caching) = %d, want -1", got)
	}
	if _, ok := StatsOf(sp); ok {
		t.Error("StatsOf accepted a non-caching provider")
	}
}

// TestCacheStatsHitRate pins the hit-rate arithmetic, including the idle
// zero case.
func TestCacheStatsHitRate(t *testing.T) {
	if got := (CacheStats{}).HitRate(); got != 0 {
		t.Errorf("idle HitRate = %v, want 0", got)
	}
	s := CacheStats{Hits: 6, Misses: 2, Collapsed: 2}
	if got := s.HitRate(); got != 0.8 {
		t.Errorf("HitRate = %v, want 0.8", got)
	}
}
