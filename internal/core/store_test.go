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
// upstream zero times and spend no upstream query — the acceptance
// criterion for resumable audits.
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

	// Second run: a new provider over the same directory. All three disk
	// hits must leave its upstream call count at zero.
	st2 := openStore(t, dir)
	sp2 := &slowProvider{attrs: []string{"a", "b"}}
	cp2 := NewStoredProviderWith(sp2, st2, obs.NewRegistry())
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
	if stats.StoreHits != int64(len(specs)) || stats.Misses != 0 {
		t.Errorf("stats = %+v, want %d store hits, 0 misses", stats, len(specs))
	}
	if stats.HitRate() != 1 {
		t.Errorf("HitRate = %v, want 1 (store hits count as hits)", stats.HitRate())
	}
	// An unpersisted spec still goes upstream, and is the only call.
	if _, err := cp2.Measure(targeting.AnyAttr(0, 1)); err != nil {
		t.Fatalf("unpersisted spec: %v", err)
	}
	if sp2.calls.Load() != 1 || UpstreamCalls(cp2) != 1 {
		t.Errorf("upstream calls after unpersisted spec = %d (UpstreamCalls %d), want 1",
			sp2.calls.Load(), UpstreamCalls(cp2))
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

// errKilled fails the upstream calls a killed process never got to make.
var errKilled = errors.New("killed")

// dieAfter answers the first left upstream specs it is sent and fails
// every later one with errKilled, which aborts an audit mid-scan the way a
// kill would, after the answers it did receive were persisted.
type dieAfter struct {
	Provider
	left int
}

func (d *dieAfter) Measure(spec targeting.Spec) (int64, error) {
	r := d.MeasureMany([]targeting.Spec{spec})[0]
	return r.Size, r.Err
}

func (d *dieAfter) MeasureMany(specs []targeting.Spec) []BatchResult {
	k := min(len(specs), d.left)
	d.left -= k
	out := append(d.Provider.MeasureMany(specs[:k]), make([]BatchResult, len(specs)-k)...)
	for i := k; i < len(specs); i++ {
		out[i].Err = errKilled
	}
	return out
}

// TestResumeAfterKillBitIdentical is the resumability property test: an
// audit killed at an arbitrary point (simulated by an upstream that fails
// every call after its first n answers, without closing the store —
// exactly what SIGKILL leaves behind given per-append fsync) and then
// resumed over the same store produces bit-identical measurements to an
// uninterrupted run, and the two runs' combined upstream calls equal the
// uninterrupted run's alone.
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

	// Kill points: the scan dies after different numbers of answers.
	for _, answered := range []int64{1, 4, total / 3, total - 1} {
		dir := t.TempDir()

		killed, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		upstream := &dieAfter{Provider: NewPlatformProvider(iface), left: int(answered)}
		ap := NewStoredProviderWith(upstream, killed, obs.NewRegistry())
		a := NewAuditorWith(ap, obs.NewRegistry())
		if _, err := a.Individuals(male()); !errors.Is(err, errKilled) {
			t.Fatalf("kill after %d: err = %v, want errKilled", answered, err)
		}
		paid := UpstreamCalls(ap)
		// SIGKILL: the store is abandoned, not closed. Every successful
		// upstream answer was fsynced by its Put, so nothing is lost.

		resumed, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("kill after %d: reopening store: %v", answered, err)
		}
		if got := int64(resumed.Len()); got != paid {
			t.Errorf("kill after %d: store holds %d records, want %d (every paid call persisted)", answered, got, paid)
		}
		rp := NewStoredProviderWith(NewPlatformProvider(iface), resumed, obs.NewRegistry())
		ra := NewAuditorWith(rp, obs.NewRegistry())
		got, err := ra.Individuals(male())
		if err != nil {
			t.Fatalf("kill after %d: resumed run: %v", answered, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kill after %d: resumed results differ from uninterrupted run", answered)
		}
		if re := UpstreamCalls(rp); paid+re != total {
			t.Errorf("kill after %d: killed run paid %d, resume paid %d, want combined %d",
				answered, paid, re, total)
		}
		killed.Close()
		resumed.Close()
	}
}

// TestStoreOf: NewStoredProviderWith attaches its store in place to an
// existing caching provider, which then persists what it measures, and a
// nil store leaves a plain caching provider.
func TestStoreOf(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a"}}
	cp := NewCachingProviderWith(sp, obs.NewRegistry())
	if cp.(*cachingProvider).store != nil {
		t.Error("storeless caching provider has a store")
	}
	st := openStore(t, t.TempDir())
	spp := NewStoredProviderWith(cp, st, obs.NewRegistry())
	if spp != cp || cp.(*cachingProvider).store != MeasurementStore(st) {
		t.Error("store not attached in place")
	}
	if _, err := spp.Measure(targeting.Attr(0)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d records after one miss, want 1", st.Len())
	}
	// nil store degrades to plain caching.
	plain := NewStoredProviderWith(&slowProvider{attrs: []string{"a"}}, nil, obs.NewRegistry())
	pc, ok := plain.(*cachingProvider)
	if !ok {
		t.Fatal("nil-store provider is not a caching provider")
	}
	if pc.store != nil {
		t.Error("nil store reported as attached")
	}
}
