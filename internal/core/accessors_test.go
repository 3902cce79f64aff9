package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/targeting"
)

// The auditor's metadata accessors and the measurement-set extractors are
// part of the figures pipeline's contract; pin them against a real
// deployment interface.
func TestAuditorAccessorsAndExtractors(t *testing.T) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 11, UniverseSize: 4000})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(NewPlatformProvider(d.Facebook))
	if a.PlatformName() != d.Facebook.Name() {
		t.Fatalf("PlatformName = %q, want %q", a.PlatformName(), d.Facebook.Name())
	}
	if a.AttrCount() != len(d.Facebook.Catalog().Attributes) {
		t.Fatalf("AttrCount = %d", a.AttrCount())
	}
	if a.TopicCount() != len(d.Facebook.Catalog().Topics) {
		t.Fatalf("TopicCount = %d", a.TopicCount())
	}

	ms := []Measurement{{Recall: 3}, {Recall: 7}}
	rs := Recalls(ms)
	if len(rs) != 2 || rs[0] != 3 || rs[1] != 7 {
		t.Fatalf("Recalls = %v", rs)
	}
}

// NewStoredProviderWith on the default registry and the untraced batch
// doors on the platform provider share one contract with their
// explicit-argument siblings: identical answers.
func TestDefaultedWrappersMatchExplicit(t *testing.T) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 11, UniverseSize: 4000})
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPlatformProvider(d.Facebook)
	spec := targeting.Attr(0)
	want, err := pp.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}

	bm, ok := pp.(BatchMeasurer)
	if !ok {
		t.Fatal("platform provider does not implement BatchMeasurer")
	}
	out := bm.MeasureMany([]targeting.Spec{spec})
	if len(out) != 1 || out[0].Err != nil || out[0].Size != want {
		t.Fatalf("MeasureMany = %+v, want size %d", out, want)
	}

	st := openStore(t, t.TempDir())
	sp := NewStoredProviderWith(pp, st, nil)
	got, err := sp.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stored provider measured %d, want %d", got, want)
	}
}
