package platform

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/audience"
	"repro/internal/catalog"
	"repro/internal/population"
	"repro/internal/targeting"
)

// prebuiltFrom round-trips a built deployment's state through the snapshot
// encoding in memory: per-user universe arrays plus every catalog option's
// blob, copied and decoded back into a CSet over the copy. This is what
// internal/snapshot does over an mmap'd file, reproduced here so the
// platform package can test the view-backed posture without an import
// cycle.
func prebuiltFrom(t testing.TB, d *Deployment) *Prebuilt {
	t.Helper()
	pre := &Prebuilt{
		Universes: map[string]population.UniverseData{
			catalog.PlatformFacebook: d.Facebook.Universe().Data(),
			catalog.PlatformGoogle:   d.Google.Universe().Data(),
			catalog.PlatformLinkedIn: d.LinkedIn.Universe().Data(),
		},
		Views: make(map[string]*OptionViews, 4),
	}
	for _, p := range d.Interfaces() {
		views := &OptionViews{}
		dim := func(kind targeting.Kind, count int) []*audience.CSet {
			out := make([]*audience.CSet, count)
			for i := 0; i < count; i++ {
				c, err := p.OptionCSet(targeting.Ref{Kind: kind, ID: i})
				if err != nil {
					t.Fatalf("%s option %d: %v", p.Name(), i, err)
				}
				v, err := audience.DecodeCSet(append([]byte(nil), c.Blob()...))
				if err != nil {
					t.Fatalf("%s option %d: %v", p.Name(), i, err)
				}
				out[i] = v
			}
			return out
		}
		views.Attributes = dim(targeting.KindAttribute, len(p.Catalog().Attributes))
		views.Topics = dim(targeting.KindTopic, len(p.Catalog().Topics))
		views.Placements = dim(targeting.KindPlacement, len(p.Catalog().Placements))
		pre.Views[p.Name()] = views
	}
	return pre
}

// TestViewBackedDeploymentEquivalence pins the view-mode query path at the
// platform layer: a deployment assembled from prebuilt views must answer the
// full random batch surface bit-identically to the built deployment it came
// from, on every interface and through both doors.
func TestViewBackedDeploymentEquivalence(t *testing.T) {
	opts := DeployOptions{Seed: 71, UniverseSize: 1 << 12}
	built, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := NewDeploymentFrom(opts, prebuiltFrom(t, built))
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range viewed.Interfaces() {
		bp := built.Interfaces()[pi]
		reqs := randomBatch(bp, 777, 80)
		want, err := bp.MeasureMany(reqs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.MeasureMany(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			sameOutcome(t, p.Name()+"/views", i, got[i], want[i].Size, want[i].Err)
		}
		// Warm must not change behaviour (or allocate the dense catalog).
		p.Warm()
		again, err := p.MeasureMany(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			sameOutcome(t, p.Name()+"/views-warm", i, again[i], want[i].Size, want[i].Err)
		}
	}
}

// TestViewsValidate pins Config.Views validation: wrong lengths, nil views,
// and universe-size disagreement are all constructor errors.
func TestViewsValidate(t *testing.T) {
	opts := DeployOptions{Seed: 79, UniverseSize: 1 << 11}
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	pre := prebuiltFrom(t, d)

	broken := *pre.Views[catalog.PlatformFacebook]
	broken.Attributes = broken.Attributes[:len(broken.Attributes)-1]
	preBad := &Prebuilt{Universes: pre.Universes, Views: map[string]*OptionViews{
		catalog.PlatformFacebook:           &broken,
		catalog.PlatformFacebookRestricted: pre.Views[catalog.PlatformFacebookRestricted],
		catalog.PlatformGoogle:             pre.Views[catalog.PlatformGoogle],
		catalog.PlatformLinkedIn:           pre.Views[catalog.PlatformLinkedIn],
	}}
	if _, err := NewDeploymentFrom(opts, preBad); err == nil {
		t.Fatal("short attribute view slice accepted")
	}

	nilled := *pre.Views[catalog.PlatformFacebook]
	nilled.Attributes = append([]*audience.CSet(nil), nilled.Attributes...)
	nilled.Attributes[3] = nil
	preBad.Views[catalog.PlatformFacebook] = &nilled
	if _, err := NewDeploymentFrom(opts, preBad); err == nil {
		t.Fatal("nil view accepted")
	}

	missing := &Prebuilt{Universes: pre.Universes, Views: map[string]*OptionViews{}}
	if _, err := NewDeploymentFrom(opts, missing); err == nil {
		t.Fatal("missing views accepted")
	}

	noUni := &Prebuilt{Universes: map[string]population.UniverseData{}, Views: pre.Views}
	if _, err := NewDeploymentFrom(opts, noUni); err == nil {
		t.Fatal("missing universes accepted")
	}
}

// TestCatalogHashProperties pins the hash the staleness checks hang from:
// deterministic, seed-sensitive, and ablation-sensitive.
func TestCatalogHashProperties(t *testing.T) {
	build := func(opts DeployOptions) string {
		d, err := NewDeployment(opts)
		if err != nil {
			t.Fatal(err)
		}
		return CatalogHash(d)
	}
	a := build(DeployOptions{Seed: 83, UniverseSize: 1 << 11})
	if b := build(DeployOptions{Seed: 83, UniverseSize: 1 << 11}); a != b {
		t.Fatalf("catalog hash not deterministic: %s vs %s", a, b)
	}
	// The catalog draws only from the seed, not the universe size.
	if b := build(DeployOptions{Seed: 83, UniverseSize: 1 << 12}); a != b {
		t.Fatalf("universe size changed the catalog hash: %s vs %s", a, b)
	}
	if b := build(DeployOptions{Seed: 89, UniverseSize: 1 << 11}); a == b {
		t.Fatal("different seeds produced the same catalog hash")
	}
	if got := fmt.Sprintf("%.8s", a); len(got) != 8 {
		t.Fatal("unreachable")
	}
}

// TestOptionCSetKinds pins OptionCSet's kind gate and its agreement across
// retained forms (dense, compressed, view-backed).
func TestOptionCSetKinds(t *testing.T) {
	opts := DeployOptions{Seed: 97, UniverseSize: 1 << 11}
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Facebook
	if _, err := p.OptionCSet(targeting.Ref{Kind: targeting.KindGender, ID: 0}); err == nil {
		t.Fatal("demographic kind accepted")
	}
	if _, err := p.OptionCSet(targeting.Ref{Kind: targeting.KindAttribute, ID: 1 << 20}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	dense, err := p.OptionCSet(targeting.Ref{Kind: targeting.KindAttribute, ID: 5})
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := NewDeploymentFrom(opts, prebuiltFrom(t, d))
	if err != nil {
		t.Fatal(err)
	}
	fromView, err := viewed.Facebook.OptionCSet(targeting.Ref{Kind: targeting.KindAttribute, ID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Count() != fromView.Count() || !audience.Equal(dense.ToSet(), fromView.ToSet()) {
		t.Fatal("view-backed OptionCSet disagrees with dense")
	}
	// The retained set is returned as is, so a snapshot re-written from a
	// view-backed deployment stores the bytes it loaded.
	if !bytes.Equal(dense.Blob(), fromView.Blob()) {
		t.Fatal("view-backed OptionCSet blob differs from the dense encoding")
	}
}
