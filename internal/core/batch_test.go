package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// serialOnly answers every batch with its provider's serial Measure door,
// one call per slot in slot order. An auditor over it runs the same batched
// fan-out as one over the provider itself, but every size comes from the
// serial door: the reference the batched kernel path is compared against.
type serialOnly struct{ p Provider }

func (s serialOnly) Name() string                               { return s.p.Name() }
func (s serialOnly) AttributeNames() []string                   { return s.p.AttributeNames() }
func (s serialOnly) TopicNames() []string                       { return s.p.TopicNames() }
func (s serialOnly) CrossFeature() bool                         { return s.p.CrossFeature() }
func (s serialOnly) Measure(spec targeting.Spec) (int64, error) { return s.p.Measure(spec) }

func (s serialOnly) MeasureMany(specs []targeting.Spec) []BatchResult {
	out := make([]BatchResult, len(specs))
	for i, spec := range specs {
		out[i].Size, out[i].Err = s.p.Measure(spec)
	}
	return out
}

// TestMeasureManyBudgetChargesOnlyUniqueMisses is the query-load
// acceptance criterion: a batch with K slots answerable from cache spends
// at most batch−K upstream queries, and in-batch duplicates of one key are
// spent once.
func TestMeasureManyBudgetChargesOnlyUniqueMisses(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a", "b", "c", "d", "e", "f"}}
	cp := NewCachingProviderWith(sp, obs.NewRegistry())

	// Warm two keys serially: K = 2 cached slots.
	for i := 0; i < 2; i++ {
		if _, err := cp.Measure(targeting.Attr(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Batch of 8 slots: 2 cached, 2 duplicate pairs (2 unique misses),
	// then 2 more distinct misses.
	specs := []targeting.Spec{
		targeting.Attr(0), // cached
		targeting.Attr(2), // miss
		targeting.Attr(1), // cached
		targeting.Attr(3), // miss
		targeting.Attr(2), // duplicate of slot 1 — free
		targeting.Attr(3), // duplicate of slot 3 — free
		targeting.Attr(4), // miss
		targeting.Attr(5), // miss
	}
	res := cp.(*cachingProvider).MeasureMany(specs)
	for i := range res {
		if res[i].Err != nil {
			t.Errorf("slot %d: unexpected error %v", i, res[i].Err)
		}
	}
	if res[1].Size != res[4].Size || res[3].Size != res[5].Size {
		t.Error("duplicate slots disagree with their claims")
	}
	if got := sp.calls.Load(); got != 6 {
		t.Errorf("upstream calls = %d, want 6 (2 warm + 4 batch misses)", got)
	}
	if got := UpstreamCalls(cp); got != 6 {
		t.Errorf("UpstreamCalls = %d, want 6", got)
	}
	stats, _ := StatsOf(cp)
	if stats.Hits != 2 || stats.Collapsed != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 collapsed", stats)
	}
}

// TestMeasureManyStoreHitsAreBudgetFree: a second process re-batching
// persisted specs makes no upstream call for the stored slots.
func TestMeasureManyStoreHitsAreBudgetFree(t *testing.T) {
	dir := t.TempDir()
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.Attr(2)}

	st1 := openStore(t, dir)
	sp1 := &slowProvider{attrs: []string{"a", "b", "c", "d"}}
	cp1 := NewStoredProviderWith(sp1, st1, obs.NewRegistry())
	first := cp1.(*cachingProvider).MeasureMany(specs)
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("first run slot %d: %v", i, r.Err)
		}
	}
	if got := sp1.calls.Load(); got != 3 {
		t.Fatalf("first run upstream calls = %d, want 3", got)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: 3 stored slots + 1 genuinely new one. Only the new
	// slot goes upstream.
	st2 := openStore(t, dir)
	sp2 := &slowProvider{attrs: []string{"a", "b", "c", "d"}}
	cp2 := NewStoredProviderWith(sp2, st2, obs.NewRegistry())
	batch := append(append([]targeting.Spec{}, specs...), targeting.Attr(3))
	res := cp2.(*cachingProvider).MeasureMany(batch)
	for i := range specs {
		if res[i].Err != nil {
			t.Errorf("stored slot %d: %v", i, res[i].Err)
		}
		if res[i].Size != first[i].Size {
			t.Errorf("stored slot %d: size %d, want %d", i, res[i].Size, first[i].Size)
		}
	}
	if res[3].Err != nil {
		t.Errorf("new slot: %v", res[3].Err)
	}
	if got := sp2.calls.Load(); got != 1 {
		t.Errorf("second run upstream calls = %d, want 1 (stored slots are free)", got)
	}
}

// TestMeasureManyRefundsFailedSlots: failed upstream slots surface their
// error, stay uncached, and are refunded from UpstreamCalls.
func TestMeasureManyRefundsFailedSlots(t *testing.T) {
	boom := errors.New("boom")
	sp := &slowProvider{attrs: []string{"a", "b", "c", "d"}, fail: func(spec targeting.Spec) error {
		refs := targeting.Refs(spec)
		if len(refs) == 1 && refs[0].ID%2 == 1 {
			return boom
		}
		return nil
	}}
	cp := NewCachingProviderWith(sp, obs.NewRegistry())
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.Attr(2), targeting.Attr(3)}
	for round := 0; round < 2; round++ {
		res := cp.(*cachingProvider).MeasureMany(specs)
		for i, r := range res {
			if i%2 == 1 {
				if !errors.Is(r.Err, boom) {
					t.Fatalf("round %d slot %d: err = %v, want boom", round, i, r.Err)
				}
				if r.Size != 0 {
					t.Fatalf("round %d slot %d: failed slot has size %d", round, i, r.Size)
				}
			} else if r.Err != nil {
				t.Fatalf("round %d slot %d: %v", round, i, r.Err)
			}
		}
	}
	// Round 1: 4 calls (2 fail, refunded). Round 2: even keys cached, odd
	// keys retried (and refunded again) — 6 upstream calls, 2 charged.
	if got := sp.calls.Load(); got != 6 {
		t.Errorf("upstream calls = %d, want 6", got)
	}
	if got := UpstreamCalls(cp); got != 2 {
		t.Errorf("UpstreamCalls = %d, want 2 (failures refunded)", got)
	}
}

// TestMeasureManySingleflightAcrossBatches: concurrent batches over the
// same key set still produce exactly one upstream call per unique key —
// whichever batch claims a key first serves the rest.
func TestMeasureManySingleflightAcrossBatches(t *testing.T) {
	sp := &slowProvider{attrs: []string{"a", "b", "c", "d", "e", "f", "g", "h"}}
	cp := NewCachingProviderWith(sp, obs.NewRegistry()).(*cachingProvider)
	specs := make([]targeting.Spec, 8)
	for i := range specs {
		specs[i] = targeting.Attr(i)
	}
	var wg sync.WaitGroup
	results := make([][]BatchResult, 6)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines batch in reverse order to force
			// cross-batch wait interleavings.
			batch := specs
			if g%2 == 1 {
				batch = make([]targeting.Spec, len(specs))
				for i, s := range specs {
					batch[len(specs)-1-i] = s
				}
			}
			results[g] = cp.MeasureMany(batch)
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("goroutine %d slot %d: %v", g, i, r.Err)
			}
			j := i
			if g%2 == 1 {
				j = len(specs) - 1 - i
			}
			if r.Size != results[0][j].Size {
				t.Fatalf("goroutine %d slot %d: size %d, want %d", g, i, r.Size, results[0][j].Size)
			}
		}
	}
	if got := sp.calls.Load(); got != int64(len(specs)) {
		t.Errorf("upstream calls = %d, want %d (one per unique key)", got, len(specs))
	}
}

// sameMeasurements compares two measurement slices field by field.
func sameMeasurements(t *testing.T, label string, got, want []Measurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d measurements, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s[%d]:\n  batched: %+v\n  serial:  %+v", label, i, got[i], want[i])
		}
	}
}

// auditEach audits every option spec of a's individual scans one at a
// time through Audit, keeping the measurements IndividualScan keeps:
// ErrBelowFloor drops a spec, and any other error fails the test, since
// the scans it is compared against succeeded.
func auditEach(t *testing.T, label string, a *Auditor, c Class) []Measurement {
	t.Helper()
	kinds := []targeting.Kind{targeting.KindAttribute}
	if a.Provider().CrossFeature() && a.TopicCount() > 0 {
		kinds = append(kinds, targeting.KindTopic)
	}
	var out []Measurement
	for _, kind := range kinds {
		n := a.AttrCount()
		if kind == targeting.KindTopic {
			n = a.TopicCount()
		}
		for id := 0; id < n; id++ {
			m, err := a.Audit(targeting.Spec{Include: []targeting.Clause{{{Kind: kind, ID: id}}}}, c)
			if errors.Is(err, ErrBelowFloor) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: Audit %s %d: %v", label, kind, id, err)
			}
			out = append(out, m)
		}
	}
	return out
}

// TestBatchedAuditorMatchesSerial is the end-to-end equivalence property:
// every fan-out workload — individual scans, greedy composition, overlap
// and union analyses — must produce identical results
// whether the platform's batch door or its serial door answers the
// fan-out's batches, and the scans must equal auditing each option on its
// own through Audit.
func TestBatchedAuditorMatchesSerial(t *testing.T) {
	d := testDeploy(t)
	for _, iface := range []*platform.Interface{d.Facebook, d.Google} {
		pp := NewPlatformProvider(iface)
		batched := NewAuditorWith(pp, obs.NewRegistry())
		serial := NewAuditorWith(serialOnly{pp}, obs.NewRegistry())
		for _, c := range []Class{male(), female(), young().Not()} {
			bi, err := batched.Individuals(c)
			if err != nil {
				t.Fatalf("%s/%s batched Individuals: %v", iface.Name(), c, err)
			}
			si, err := serial.Individuals(c)
			if err != nil {
				t.Fatalf("%s/%s serial Individuals: %v", iface.Name(), c, err)
			}
			label := iface.Name() + "/" + c.String()
			sameMeasurements(t, label+"/individuals", bi, si)
			each := NewAuditorWith(pp, obs.NewRegistry())
			sameMeasurements(t, label+"/audit-each", bi, auditEach(t, label, each, c))

			bg, berr := batched.GreedyCompositions(bi, c, ComposeConfig{K: 20})
			sg, serr := serial.GreedyCompositions(si, c, ComposeConfig{K: 20})
			if (berr == nil) != (serr == nil) {
				t.Fatalf("%s/%s greedy: batched err=%v, serial err=%v", iface.Name(), c, berr, serr)
			}
			if berr == nil {
				sameMeasurements(t, iface.Name()+"/"+c.String()+"/greedy", bg, sg)
			}

			if berr == nil && len(bg) >= 2 {
				top := bg
				if len(top) > 6 {
					top = top[:6]
				}
				bo, berr := batched.MedianOverlap(top, c, OverlapConfig{MaxPairs: 10, Seed: 3})
				so, serr := serial.MedianOverlap(top, c, OverlapConfig{MaxPairs: 10, Seed: 3})
				if (berr == nil) != (serr == nil) || (berr == nil && bo != so) {
					t.Fatalf("%s/%s overlap: batched (%v, %v), serial (%v, %v)",
						iface.Name(), c, bo, berr, so, serr)
				}
				bu, berr := batched.EstimateUnionRecall(top[:2], c, 0)
				su, serr := serial.EstimateUnionRecall(top[:2], c, 0)
				if (berr == nil) != (serr == nil) || (berr == nil && !reflect.DeepEqual(bu, su)) {
					t.Fatalf("%s/%s union: batched (%+v, %v), serial (%+v, %v)",
						iface.Name(), c, bu, berr, su, serr)
				}
			}
		}
	}
}
