package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/targeting"
)

// openStore opens a store in a fresh temp dir (or an existing one) with an
// isolated metrics registry.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoredProviderDiskHitSkipsUpstreamAndBudget: a second process (fresh
// provider, same store directory) re-measuring persisted specs must reach
// upstream zero times and charge zero budget — the acceptance criterion for
// resumable audits.
func TestStoredProviderDiskHitSkipsUpstreamAndBudget(t *testing.T) {
	dir := t.TempDir()
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.And(targeting.Attr(0), targeting.Attr(1))}

	// First run: everything misses the store and goes upstream.
	st1 := openStore(t, dir)
	sp1 := &slowProvider{attrs: []string{"a", "b"}}
	cp1 := NewStoredProviderWith(sp1, st1, obs.NewRegistry())
	want := make([]int64, len(specs))
	for i, spec := range specs {
		v, err := cp1.Measure(spec)
		if err != nil {
			t.Fatalf("first run Measure: %v", err)
		}
		want[i] = v
	}
	if got := sp1.calls.Load(); got != int64(len(specs)) {
		t.Fatalf("first run upstream calls = %d, want %d", got, len(specs))
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run: a new provider over the same directory with a budget of
	// one upstream call. All three disk hits must leave that budget
	// untouched.
	st2 := openStore(t, dir)
	sp2 := &slowProvider{attrs: []string{"a", "b"}}
	cp2 := NewStoredProviderWith(sp2, st2, obs.NewRegistry())
	SetQueryBudget(cp2, 1)
	for i, spec := range specs {
		v, err := cp2.Measure(spec)
		if err != nil {
			t.Fatalf("resumed Measure: %v", err)
		}
		if v != want[i] {
			t.Errorf("resumed value %d = %d, want %d", i, v, want[i])
		}
	}
	if got := sp2.calls.Load(); got != 0 {
		t.Errorf("resumed upstream calls = %d, want 0", got)
	}
	stats, ok := StatsOf(cp2)
	if !ok {
		t.Fatal("StatsOf rejected stored provider")
	}
	if stats.StoreHits != int64(len(specs)) || stats.Misses != 0 || stats.Refused != 0 {
		t.Errorf("stats = %+v, want %d store hits, 0 misses, 0 refused", stats, len(specs))
	}
	if stats.HitRate() != 1 {
		t.Errorf("HitRate = %v, want 1 (store hits count as hits)", stats.HitRate())
	}
	// The budget still has its one charge: an unpersisted spec spends it,
	// and the next unpersisted spec is refused.
	if _, err := cp2.Measure(targeting.AnyAttr(0, 1)); err != nil {
		t.Fatalf("first unpersisted spec: %v", err)
	}
	if sp2.calls.Load() != 1 {
		t.Errorf("upstream calls after unpersisted spec = %d, want 1", sp2.calls.Load())
	}
	if _, err := cp2.Measure(targeting.Excluding(targeting.Attr(0), targeting.Attr(1))); !errors.Is(err, ErrQueryBudget) {
		t.Errorf("second unpersisted spec: err = %v, want ErrQueryBudget", err)
	}
}

// TestLogicallyEqualSpecsOneUpstreamOneRecord is the canonicalization
// regression test: every spelling of the same formula — reordered AND
// clauses, reordered refs inside an OR, duplicated refs, duplicated
// clauses — must share one in-memory cache key and one store record.
func TestLogicallyEqualSpecsOneUpstreamOneRecord(t *testing.T) {
	a := targeting.Ref{Kind: targeting.KindAttribute, ID: 0}
	b := targeting.Ref{Kind: targeting.KindAttribute, ID: 1}
	variants := []targeting.Spec{
		{Include: []targeting.Clause{{a}, {b}}},      // a ∧ b
		{Include: []targeting.Clause{{b}, {a}}},      // b ∧ a
		{Include: []targeting.Clause{{a}, {b}, {a}}}, // a ∧ b ∧ a
		{Include: []targeting.Clause{{a}, {a}, {b}}}, // a ∧ a ∧ b
		{Include: []targeting.Clause{{b}, {a}, {b}}}, // duplicates of both
	}
	for i, v := range variants[1:] {
		if targeting.Canonical(v) != targeting.Canonical(variants[0]) {
			t.Fatalf("variant %d canonicalizes to %q, want %q", i+1, targeting.Canonical(v), targeting.Canonical(variants[0]))
		}
	}

	st := openStore(t, t.TempDir())
	sp := &slowProvider{attrs: []string{"a", "b"}}
	cp := NewStoredProviderWith(sp, st, obs.NewRegistry())
	first, err := cp.Measure(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants[1:] {
		got, err := cp.Measure(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i+1, err)
		}
		if got != first {
			t.Errorf("variant %d = %d, want %d", i+1, got, first)
		}
	}
	if calls := sp.calls.Load(); calls != 1 {
		t.Errorf("upstream calls = %d, want 1 (all variants share one cache key)", calls)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("store records = %d, want 1 (all variants share one store key)", n)
	}
	// And an OR-clause with duplicated refs shares the deduplicated key.
	dupOr := targeting.Spec{Include: []targeting.Clause{{a, b, a}}}
	if _, err := cp.Measure(targeting.AnyAttr(0, 1)); err != nil {
		t.Fatal(err)
	}
	callsBefore := sp.calls.Load()
	if _, err := cp.Measure(dupOr); err != nil {
		t.Fatal(err)
	}
	if sp.calls.Load() != callsBefore {
		t.Error("duplicated OR ref caused a second upstream call")
	}
}

// TestResumeAfterKillBitIdentical is the resumability property test: an
// audit killed at an arbitrary point (simulated by a query budget that
// aborts mid-scan, without closing the store — exactly what SIGKILL leaves
// behind given per-append fsync) and then resumed over the same store
// produces bit-identical measurements to an uninterrupted run, and the two
// runs' combined upstream calls equal the uninterrupted run's alone.
func TestResumeAfterKillBitIdentical(t *testing.T) {
	d := testDeploy(t)
	iface := d.Interfaces()[0]

	// Reference: one uninterrupted, storeless run.
	ref := NewAuditorWith(NewPlatformProvider(iface), obs.NewRegistry())
	want, err := ref.Individuals(male())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	total := UpstreamCalls(ref.Provider())
	if total <= 0 {
		t.Fatalf("uninterrupted upstream calls = %d", total)
	}

	// Kill points: budgets that abort the scan at different depths.
	for _, budget := range []int64{1, 4, total / 3, total - 1} {
		dir := t.TempDir()

		killed, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		ap := NewStoredProviderWith(NewPlatformProvider(iface), killed, obs.NewRegistry())
		SetQueryBudget(ap, budget)
		a := NewAuditorWith(ap, obs.NewRegistry())
		if _, err := a.Individuals(male()); !errors.Is(err, ErrQueryBudget) {
			t.Fatalf("budget %d: err = %v, want ErrQueryBudget", budget, err)
		}
		paid := UpstreamCalls(ap)
		// SIGKILL: the store is abandoned, not closed. Every successful
		// upstream answer was fsynced by its Put, so nothing is lost.

		resumed, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("budget %d: reopening store: %v", budget, err)
		}
		if got := int64(resumed.Len()); got != paid {
			t.Errorf("budget %d: store holds %d records, want %d (every paid call persisted)", budget, got, paid)
		}
		rp := NewStoredProviderWith(NewPlatformProvider(iface), resumed, obs.NewRegistry())
		ra := NewAuditorWith(rp, obs.NewRegistry())
		got, err := ra.Individuals(male())
		if err != nil {
			t.Fatalf("budget %d: resumed run: %v", budget, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: resumed results differ from uninterrupted run", budget)
		}
		if re := UpstreamCalls(rp); paid+re != total {
			t.Errorf("budget %d: killed run paid %d, resume paid %d, want combined %d",
				budget, paid, re, total)
		}
		killed.Close()
		resumed.Close()
	}
}

// TestStoreOf reports store attachment.
func TestStoreOf(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a"}}
	if _, ok := StoreOf(sp); ok {
		t.Error("StoreOf on a raw provider")
	}
	cp := NewCachingProviderWith(sp, obs.NewRegistry())
	if _, ok := StoreOf(cp); ok {
		t.Error("StoreOf on a storeless caching provider")
	}
	st := openStore(t, t.TempDir())
	spp := NewStoredProviderWith(cp, st, obs.NewRegistry())
	if got, ok := StoreOf(spp); !ok || got != MeasurementStore(st) {
		t.Error("StoreOf lost the attached store")
	}
	// nil store degrades to plain caching.
	plain := NewStoredProviderWith(&slowProvider{attrs: []string{"a"}}, nil, obs.NewRegistry())
	if _, ok := StoreOf(plain); ok {
		t.Error("nil store reported as attached")
	}
	if _, ok := plain.(*cachingProvider); !ok {
		t.Error("nil-store provider is not a caching provider")
	}
}
