package adapi

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/targeting"
)

func TestMeasureStoreKeyQualifiers(t *testing.T) {
	spec := targeting.And(targeting.Attr(1), targeting.Attr(2))
	base := measureStoreKey(platform.EstimateRequest{Spec: spec})
	// The default frequency cap spells two ways.
	if got := measureStoreKey(platform.EstimateRequest{Spec: spec, FrequencyCapPerMonth: 1}); got != base {
		t.Errorf("cap 0 and cap 1 keys differ: %q vs %q", got, base)
	}
	// Non-spec parameters that change the answer must change the key.
	if got := measureStoreKey(platform.EstimateRequest{Spec: spec, Objective: platform.ObjectiveTraffic}); got == base {
		t.Error("objective did not qualify the key")
	}
	if got := measureStoreKey(platform.EstimateRequest{Spec: spec, FrequencyCapPerMonth: 5}); got == base {
		t.Error("frequency cap did not qualify the key")
	}
	// Reordered spellings of the spec share the key.
	swapped := targeting.And(targeting.Attr(2), targeting.Attr(1))
	if got := measureStoreKey(platform.EstimateRequest{Spec: swapped}); got != base {
		t.Errorf("reordered spec changed the key: %q vs %q", got, base)
	}
}

// TestServerStoreServesAcrossRestart: measurements served by a store-backed
// server survive into a second server over the same directory, which
// answers them without querying the platform at all.
func TestServerStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const iface = "facebook"
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.And(targeting.Attr(0), targeting.Attr(1))}

	st1, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts1, d := startServer(t, ServerOptions{Store: st1, Metrics: obs.NewRegistry()})
	var p *platform.Interface
	for _, cand := range d.Interfaces() {
		if cand.Name() == iface {
			p = cand
		}
	}
	c1, err := NewClient(ctx, ts1.URL, iface, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(specs))
	for i, spec := range specs {
		if want[i], err = c1.Measure(spec); err != nil {
			t.Fatalf("first server measure: %v", err)
		}
	}
	if n := st1.Len(); n != len(specs) {
		t.Fatalf("store holds %d records after first run, want %d", n, len(specs))
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	reg := obs.NewRegistry()
	ts2, _ := startServer(t, ServerOptions{Store: st2, Metrics: reg})
	c2, err := NewClient(ctx, ts2.URL, iface, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := platformQueries(p.Name())
	for i, spec := range specs {
		got, err := c2.Measure(spec)
		if err != nil {
			t.Fatalf("restarted server measure: %v", err)
		}
		if got != want[i] {
			t.Errorf("spec %d: restarted server answered %d, want %d", i, got, want[i])
		}
	}
	if delta := platformQueries(p.Name()) - before; delta != 0 {
		t.Errorf("restarted server placed %d queries on the platform, want 0", delta)
	}
	if hits := reg.CounterValue("adapi_server_store_hits_total", obs.L("interface", iface)); hits != int64(len(specs)) {
		t.Errorf("adapi_server_store_hits_total = %d, want %d", hits, len(specs))
	}
}

// TestAdvertiserDoorNotCached: only the auditor door reads and writes the
// store; advertiser estimates always reach the platform.
func TestAdvertiserDoorNotCached(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts, _ := startServer(t, ServerOptions{Store: st, Metrics: obs.NewRegistry()})
	c, err := NewClient(context.Background(), ts.URL, "facebook", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Estimate(context.Background(), platform.EstimateRequest{Spec: targeting.Attr(3)}); err != nil {
			t.Fatalf("estimate %d: %v", i, err)
		}
	}
	if n := st.Len(); n != 0 {
		t.Errorf("advertiser door wrote %d store records, want 0", n)
	}
}
