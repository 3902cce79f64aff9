package experiments

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/targeting"
)

// storeRunner builds a runner over a small deployment whose measurement
// caches are backed by a durable store in dir.
func storeRunner(t *testing.T, dir string, seed uint64) (*Runner, *store.Store) {
	t.Helper()
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 44, UniverseSize: 8000})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Deployment: d,
		K:          20,
		Seed:       seed,
		Store:      st,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return r, st
}

// TestRunnerStoreWiring: every platform's auditor measures through
// Config.Store, so a rerun over the reopened store is served from it with
// no upstream call.
func TestRunnerStoreWiring(t *testing.T) {
	dir := t.TempDir()
	spec := targeting.Attr(0)
	r1, st1 := storeRunner(t, dir, 5)
	for _, name := range r1.PlatformNames() {
		a, err := r1.Auditor(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Provider().Measure(spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, st2 := storeRunner(t, dir, 5)
	defer st2.Close()
	for _, name := range r2.PlatformNames() {
		a, err := r2.Auditor(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Provider().Measure(spec); err != nil {
			t.Fatalf("%s: rerun: %v", name, err)
		}
		stats, _ := core.StatsOf(a.Provider())
		if calls := core.UpstreamCalls(a.Provider()); stats.StoreHits == 0 || calls != 0 {
			t.Fatalf("%s: rerun not served from Config.Store: %d store hits, %d upstream calls",
				name, stats.StoreHits, calls)
		}
	}
}

// TestRunnerResumeServedFromDisk: a second runner over a reopened store and
// the same deployment seed re-derives an identical scan without a single
// upstream call — the store is the cross-process memory that makes audits
// resumable.
func TestRunnerResumeServedFromDisk(t *testing.T) {
	dir := t.TempDir()

	r1, st1 := storeRunner(t, dir, 5)
	ms1, err := r1.Individuals(catalog.PlatformLinkedIn, classMale())
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := r1.Auditor(catalog.PlatformLinkedIn)
	if core.UpstreamCalls(a1.Provider()) == 0 {
		t.Fatal("first run made no upstream calls")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, st2 := storeRunner(t, dir, 5)
	defer st2.Close()
	ms2, err := r2.Individuals(catalog.PlatformLinkedIn, classMale())
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := r2.Auditor(catalog.PlatformLinkedIn)
	if calls := core.UpstreamCalls(a2.Provider()); calls != 0 {
		t.Fatalf("resumed run made %d upstream calls, want 0", calls)
	}
	if len(ms1) != len(ms2) {
		t.Fatalf("resumed scan has %d measurements, want %d", len(ms2), len(ms1))
	}
	if !reflect.DeepEqual(ms1, ms2) {
		t.Fatal("resumed scan differs from the first run")
	}
	stats, ok := core.StatsOf(a2.Provider())
	if !ok || stats.StoreHits == 0 {
		t.Fatalf("resumed run reports no store hits: %+v", stats)
	}
}

// TestPhaseCheckpoints: completion markers round-trip through the store and
// survive a reopen; a storeless runner reports nothing completed.
func TestPhaseCheckpoints(t *testing.T) {
	dir := t.TempDir()

	r1, st1 := storeRunner(t, dir, 5)
	if r1.PhaseCompleted("fig1") {
		t.Fatal("fresh store reports fig1 complete")
	}
	if err := r1.MarkPhaseComplete("fig1"); err != nil {
		t.Fatal(err)
	}
	if err := r1.MarkPhaseComplete("tab1"); err != nil {
		t.Fatal(err)
	}
	if !r1.PhaseCompleted("fig1") || !r1.PhaseCompleted("tab1") {
		t.Fatal("marked phases not reported complete")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpoints survive the restart and filter in caller order.
	r2, st2 := storeRunner(t, dir, 5)
	defer st2.Close()
	got := r2.CompletedPhases("fig1", "fig2", "tab1")
	if len(got) != 2 || got[0] != "fig1" || got[1] != "tab1" {
		t.Fatalf("CompletedPhases = %v, want [fig1 tab1]", got)
	}
	if r2.PhaseCompleted("fig2") {
		t.Fatal("unmarked phase reported complete")
	}

	// Without a store, checkpointing is inert.
	plain := testRunner(t)
	if err := plain.MarkPhaseComplete("fig1"); err != nil {
		t.Fatal(err)
	}
	if plain.PhaseCompleted("fig1") {
		t.Fatal("storeless runner reported a phase complete")
	}
}
