package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/targeting"
)

// slowProvider is a Provider stub whose Measure sleeps briefly and records
// how many upstream calls (and how many at once) it observed.
type slowProvider struct {
	attrs      []string
	calls      atomic.Int64
	inFlight   atomic.Int64
	maxInFight atomic.Int64
	fail       func(spec targeting.Spec) error
}

func (sp *slowProvider) Name() string             { return "slow" }
func (sp *slowProvider) AttributeNames() []string { return sp.attrs }
func (sp *slowProvider) TopicNames() []string     { return nil }
func (sp *slowProvider) CrossFeature() bool       { return false }

func (sp *slowProvider) Measure(spec targeting.Spec) (int64, error) {
	cur := sp.inFlight.Add(1)
	defer sp.inFlight.Add(-1)
	for {
		old := sp.maxInFight.Load()
		if cur <= old || sp.maxInFight.CompareAndSwap(old, cur) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	sp.calls.Add(1)
	if sp.fail != nil {
		if err := sp.fail(spec); err != nil {
			return 0, err
		}
	}
	return 1_000_000 + int64(100*len(targeting.Refs(spec))), nil
}

// MeasureMany answers a batch with serial Measure calls in slot order.
func (sp *slowProvider) MeasureMany(specs []targeting.Spec) []BatchResult {
	out := make([]BatchResult, len(specs))
	for i, s := range specs {
		out[i].Size, out[i].Err = sp.Measure(s)
	}
	return out
}

// TestCachingProviderSingleflight asserts that concurrent misses on the
// same canonical key collapse into one upstream call serving every waiter.
func TestCachingProviderSingleflight(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a", "b"}}
	cp := NewCachingProviderWith(sp, nil)
	spec := targeting.Attr(0)
	const waiters = 32
	var wg sync.WaitGroup
	results := make([]int64, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cp.Measure(spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("waiter %d got %d, waiter 0 got %d", i, results[i], results[0])
		}
	}
	if got := sp.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (thundering herd)", got)
	}
	if got := UpstreamCalls(cp); got != 1 {
		t.Fatalf("UpstreamCalls = %d, want 1", got)
	}
}

// TestCachingProviderBudgetCountsUniqueMisses asserts the query count
// charges one call per unique key regardless of how many goroutines race
// the miss.
func TestCachingProviderBudgetCountsUniqueMisses(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a", "b", "c"}}
	cp := NewCachingProviderWith(sp, nil)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cp.Measure(targeting.Attr(i % 2)); err != nil {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d waiters failed with 2 unique keys", failed.Load())
	}
	if got := sp.calls.Load(); got != 2 {
		t.Fatalf("upstream calls = %d, want 2", got)
	}
	if got := UpstreamCalls(cp); got != 2 {
		t.Fatalf("UpstreamCalls = %d, want 2", got)
	}
}

// TestCachingProviderErrorNotCached asserts a failed upstream call is
// shared with concurrent waiters but neither cached nor charged, so a
// retry reaches upstream again.
func TestCachingProviderErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	var failOnce atomic.Bool
	failOnce.Store(true)
	sp := &slowProvider{attrs: []string{"a"}, fail: func(targeting.Spec) error {
		if failOnce.Swap(false) {
			return boom
		}
		return nil
	}}
	cp := NewCachingProviderWith(sp, nil)
	if _, err := cp.Measure(targeting.Attr(0)); !errors.Is(err, boom) {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	if got := UpstreamCalls(cp); got != 0 {
		t.Fatalf("UpstreamCalls after failure = %d, want 0 (refunded)", got)
	}
	if _, err := cp.Measure(targeting.Attr(0)); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := UpstreamCalls(cp); got != 1 {
		t.Fatalf("UpstreamCalls after retry = %d, want 1", got)
	}
}

// TestConcurrentAuditorsSharedInterface drives several auditors (each its
// own goroutine, as the Auditor contract requires) against one shared
// platform interface under -race.
func TestConcurrentAuditorsSharedInterface(t *testing.T) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 31, UniverseSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	male := GenderClass(population.Male)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewAuditor(NewPlatformProvider(d.Facebook))
			if _, err := a.Individuals(male); err != nil {
				errCh <- fmt.Errorf("concurrent scan: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
