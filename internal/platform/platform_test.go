package platform

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/audience"
	"repro/internal/catalog"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/targeting"
)

var (
	testDeployOnce sync.Once
	testDeploy     *Deployment
	testDeployErr  error
)

// deploy returns a small shared deployment for tests.
func deploy(t *testing.T) *Deployment {
	t.Helper()
	testDeployOnce.Do(func() {
		testDeploy, testDeployErr = NewDeployment(DeployOptions{Seed: 5, UniverseSize: 20000})
	})
	if testDeployErr != nil {
		t.Fatal(testDeployErr)
	}
	return testDeploy
}

func TestNewDeploymentDefaults(t *testing.T) {
	if _, err := NewDeployment(DeployOptions{UniverseSize: 500}); err == nil {
		t.Fatal("tiny universe should be rejected")
	}
}

func TestInterfaceNames(t *testing.T) {
	d := deploy(t)
	want := []string{
		catalog.PlatformFacebookRestricted,
		catalog.PlatformFacebook,
		catalog.PlatformGoogle,
		catalog.PlatformLinkedIn,
	}
	ifaces := d.Interfaces()
	if len(ifaces) != len(want) {
		t.Fatalf("%d interfaces, want %d", len(ifaces), len(want))
	}
	for i, p := range ifaces {
		if p.Name() != want[i] {
			t.Errorf("interface %d = %q, want %q", i, p.Name(), want[i])
		}
	}
	if _, err := d.ByName(catalog.PlatformGoogle); err != nil {
		t.Errorf("ByName(google): %v", err)
	}
	if _, err := d.ByName("myspace"); !errors.Is(err, ErrUnknownInterface) || err.Error() != `platform: unknown interface "myspace"` {
		t.Errorf("ByName(myspace) = %v, want ErrUnknownInterface", err)
	}
}

func TestSharedFacebookUniverse(t *testing.T) {
	d := deploy(t)
	if d.Facebook.Universe() != d.FacebookRestricted.Universe() {
		t.Fatal("FB full and restricted must share a universe")
	}
	if d.Facebook.Universe() == d.Google.Universe() {
		t.Fatal("FB and Google must not share a universe")
	}
}

func TestEstimateSimpleAttr(t *testing.T) {
	d := deploy(t)
	for _, p := range d.Interfaces() {
		got, err := p.Estimate(EstimateRequest{Spec: targeting.Attr(0)})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got < 0 {
			t.Fatalf("%s: negative estimate %d", p.Name(), got)
		}
	}
}

func TestEstimateConsistency(t *testing.T) {
	// Paper §3: 100 back-to-back repeated calls return identical estimates.
	d := deploy(t)
	for _, p := range d.Interfaces() {
		spec := targeting.Attr(3)
		first, err := p.Estimate(EstimateRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			got, err := p.Estimate(EstimateRequest{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Fatalf("%s: estimate changed from %d to %d on repeat %d", p.Name(), first, got, i)
			}
		}
	}
}

func TestEstimateIsRounded(t *testing.T) {
	d := deploy(t)
	for _, p := range d.Interfaces() {
		for id := 0; id < 20; id++ {
			got, err := p.Estimate(EstimateRequest{Spec: targeting.Attr(id)})
			if err != nil {
				t.Fatal(err)
			}
			if rr := p.Rounder().Round(got); rr != got {
				t.Fatalf("%s: estimate %d is not a fixed point of the rounder (%d)", p.Name(), got, rr)
			}
		}
	}
}

func TestRestrictedRejectsDemographics(t *testing.T) {
	d := deploy(t)
	_, err := d.FacebookRestricted.Estimate(EstimateRequest{
		Spec: targeting.WithGender(targeting.Attr(0), int(population.Male)),
	})
	if !errors.Is(err, targeting.ErrDemoForbidden) {
		t.Fatalf("want ErrDemoForbidden, got %v", err)
	}
}

func TestRestrictedMeasureAllowsDemographics(t *testing.T) {
	// The auditor's door: measurement rules permit the demographic
	// conditioning the paper performs via Facebook's normal interface.
	d := deploy(t)
	got, err := d.FacebookRestricted.Measure(EstimateRequest{
		Spec: targeting.WithGender(targeting.Attr(0), int(population.Male)),
	})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if got < 0 {
		t.Fatalf("Measure returned %d", got)
	}
}

func TestGoogleRejectsWithinFeatureAnd(t *testing.T) {
	d := deploy(t)
	_, err := d.Google.Estimate(EstimateRequest{
		Spec: targeting.And(targeting.Attr(0), targeting.Attr(1)),
	})
	if !errors.Is(err, targeting.ErrAndWithinFeature) {
		t.Fatalf("want ErrAndWithinFeature, got %v", err)
	}
	// Cross-feature AND is fine.
	if _, err := d.Google.Estimate(EstimateRequest{
		Spec: targeting.And(targeting.Attr(0), targeting.Topic(0)),
	}); err != nil {
		t.Fatalf("cross-feature AND rejected: %v", err)
	}
}

func TestAudienceMatchesSetAlgebra(t *testing.T) {
	d := deploy(t)
	p := d.Facebook
	a, err := p.Audience(targeting.Attr(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Audience(targeting.Attr(1))
	if err != nil {
		t.Fatal(err)
	}
	both, err := p.Audience(targeting.And(targeting.Attr(0), targeting.Attr(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !audience.Equal(both, audience.And(a, b)) {
		t.Fatal("AND audience mismatch")
	}
	either, err := p.Audience(targeting.AnyAttr(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !audience.Equal(either, audience.Or(a, b)) {
		t.Fatal("OR audience mismatch")
	}
	diff, err := p.Audience(targeting.Excluding(targeting.Attr(0), targeting.Attr(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !audience.Equal(diff, audience.AndNot(a, b)) {
		t.Fatal("exclusion audience mismatch")
	}
}

func TestCompositionShrinksAudience(t *testing.T) {
	d := deploy(t)
	p := d.LinkedIn
	single, err := p.Estimate(EstimateRequest{Spec: targeting.Attr(2)})
	if err != nil {
		t.Fatal(err)
	}
	both, err := p.Estimate(EstimateRequest{Spec: targeting.And(targeting.Attr(2), targeting.Attr(3))})
	if err != nil {
		t.Fatal(err)
	}
	if both > single {
		t.Fatalf("AND estimate %d exceeds single-attribute estimate %d", both, single)
	}
}

func TestEstimatePlatformScale(t *testing.T) {
	// Targeting all US users (both genders, US location) must report about
	// the platform's US total; the unscoped audience is larger by the
	// non-US share.
	d := deploy(t)
	spec := targeting.Spec{Include: []targeting.Clause{{
		{Kind: targeting.KindGender, ID: int(population.Male)},
		{Kind: targeting.KindGender, ID: int(population.Female)},
	}}}
	us := targeting.WithLocation(spec, int(population.RegionUS))
	got, err := d.Facebook.Estimate(EstimateRequest{Spec: us})
	if err != nil {
		t.Fatal(err)
	}
	if got < FacebookTotalUsers*93/100 || got > FacebookTotalUsers*107/100 {
		t.Fatalf("whole-US estimate %d, want ≈%d", got, FacebookTotalUsers)
	}
	global, err := d.Facebook.Estimate(EstimateRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if global <= got {
		t.Fatalf("global estimate %d not above US estimate %d", global, got)
	}
}

func TestGoogleFrequencyCap(t *testing.T) {
	d := deploy(t)
	spec := targeting.Attr(0)
	one, err := d.Google.Estimate(EstimateRequest{Spec: spec, FrequencyCapPerMonth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := d.Google.Estimate(EstimateRequest{Spec: spec, FrequencyCapPerMonth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ten <= one {
		t.Fatalf("cap=10 estimate %d not above cap=1 estimate %d", ten, one)
	}
	// Default cap is the most restrictive (1), per the paper's methodology.
	def, err := d.Google.Estimate(EstimateRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if def != one {
		t.Fatalf("default cap estimate %d != cap=1 estimate %d", def, one)
	}
	if _, err := d.Google.Estimate(EstimateRequest{Spec: spec, FrequencyCapPerMonth: 99}); !errors.Is(err, ErrBadFrequencyCap) {
		t.Fatalf("want ErrBadFrequencyCap, got %v", err)
	}
}

func TestFrequencyCapIgnoredOffGoogle(t *testing.T) {
	d := deploy(t)
	spec := targeting.Attr(0)
	one, _ := d.Facebook.Estimate(EstimateRequest{Spec: spec, FrequencyCapPerMonth: 1})
	ten, _ := d.Facebook.Estimate(EstimateRequest{Spec: spec, FrequencyCapPerMonth: 10})
	if one != ten {
		t.Fatal("frequency cap must not affect user-count estimates")
	}
}

func TestObjectives(t *testing.T) {
	d := deploy(t)
	reach, err := d.Facebook.Estimate(EstimateRequest{Spec: targeting.Attr(0), Objective: ObjectiveReach})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := d.Facebook.Estimate(EstimateRequest{Spec: targeting.Attr(0), Objective: ObjectiveTraffic})
	if err != nil {
		t.Fatal(err)
	}
	if traffic >= reach && reach > 0 {
		t.Fatalf("traffic estimate %d not below reach estimate %d", traffic, reach)
	}
	if _, err := d.Facebook.Estimate(EstimateRequest{Spec: targeting.Attr(0), Objective: "dance"}); !errors.Is(err, ErrUnknownObjective) {
		t.Fatalf("want ErrUnknownObjective, got %v", err)
	}
}

func TestUnknownOptionRejected(t *testing.T) {
	d := deploy(t)
	_, err := d.LinkedIn.Estimate(EstimateRequest{Spec: targeting.Attr(99999)})
	if !errors.Is(err, targeting.ErrUnknownOption) {
		t.Fatalf("want ErrUnknownOption, got %v", err)
	}
}

// queriesServed reads p's platform_queries_total counters, summed over both
// doors. Deployments that share a registry share these counters, so tests
// that read them give their deployment a registry of its own.
func queriesServed(p *Interface) int64 {
	return p.mMeasureQueries.Value() + p.mEstimateQueries.Value()
}

func TestQueryCount(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 9, UniverseSize: 5000, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	p := d.LinkedIn
	before := queriesServed(p)
	for i := 0; i < 7; i++ {
		if _, err := p.Estimate(EstimateRequest{Spec: targeting.Attr(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := queriesServed(p) - before; got != 7 {
		t.Fatalf("query count delta = %d, want 7", got)
	}
}

func TestConcurrentEstimates(t *testing.T) {
	d := deploy(t)
	p := d.Google
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.Estimate(EstimateRequest{
					Spec: targeting.And(targeting.Attr((g*20+i)%50), targeting.Topic(i%50)),
				}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPinnedAttributeSkewEmerges(t *testing.T) {
	// "Interests — Electrical engineering" is pinned with rep ratio 3.71
	// toward males; measured on the simulated universe the ratio must come
	// out clearly male-skewed.
	d := deploy(t)
	p := d.FacebookRestricted
	id := p.Catalog().FindAttr("Interests — Electrical engineering")
	if id < 0 {
		t.Fatal("pinned attribute missing")
	}
	set, err := p.Audience(targeting.Attr(id))
	if err != nil {
		t.Fatal(err)
	}
	uni := p.Universe()
	maleRate := float64(audience.CountAnd(set, uni.GenderSet(population.Male))) /
		float64(uni.GenderSet(population.Male).Count())
	femaleRate := float64(audience.CountAnd(set, uni.GenderSet(population.Female))) /
		float64(uni.GenderSet(population.Female).Count())
	ratio := maleRate / femaleRate
	if ratio < 2 {
		t.Fatalf("EE rep ratio = %v, want clearly male-skewed (target 3.71)", ratio)
	}
}

func BenchmarkEstimate2Way(b *testing.B) {
	d, err := NewDeployment(DeployOptions{Seed: 5, UniverseSize: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	p := d.FacebookRestricted
	p.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := targeting.And(targeting.Attr(i%300), targeting.Attr((i+7)%300))
		if _, err := p.Estimate(EstimateRequest{Spec: spec}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGooglePlacements(t *testing.T) {
	d := deploy(t)
	g := d.Google
	if len(g.Catalog().Placements) == 0 {
		t.Fatal("google catalog has no placements")
	}
	// A placement is targetable and composable across features.
	one, err := g.Estimate(EstimateRequest{Spec: targeting.Placement(0)})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := g.Estimate(EstimateRequest{
		Spec: targeting.And(targeting.Placement(0), targeting.Attr(0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if composed > one {
		t.Fatalf("placement ∧ attribute %d exceeds placement alone %d", composed, one)
	}
	// Two placements cannot be ANDed (within-feature OR only, like topics).
	_, err = g.Estimate(EstimateRequest{
		Spec: targeting.And(targeting.Placement(0), targeting.Placement(1)),
	})
	if !errors.Is(err, targeting.ErrAndWithinFeature) {
		t.Fatalf("want ErrAndWithinFeature, got %v", err)
	}
	// Out-of-range placement ids are rejected.
	_, err = g.Estimate(EstimateRequest{Spec: targeting.Placement(999999)})
	if !errors.Is(err, targeting.ErrUnknownOption) {
		t.Fatalf("want ErrUnknownOption, got %v", err)
	}
}

func TestPlacementsOnlyOnGoogle(t *testing.T) {
	d := deploy(t)
	for _, p := range []*Interface{d.Facebook, d.FacebookRestricted, d.LinkedIn} {
		if _, err := p.Estimate(EstimateRequest{Spec: targeting.Placement(0)}); !errors.Is(err, targeting.ErrKindForbidden) {
			t.Errorf("%s: want ErrKindForbidden, got %v", p.Name(), err)
		}
	}
}

// TestScaleAndRoundHalfUp pins ScaleAndRound's formula on exact-rounder
// interfaces with scale factor 2.5: a scaled size landing on x.5 rounds up,
// one at x.49… rounds down, and the impression factor applies only on
// impression-estimating interfaces. No figure of the paper moves if the
// +0.5 drifts to +0.49, so this table is what catches it.
func TestScaleAndRoundHalfUp(t *testing.T) {
	u, err := population.New(population.Config{
		Seed: 1, Size: 64, ScaleFactor: 2.5, MaleShare: 0.5,
		AgeShare: [population.NumAgeRanges]float64{0.25, 0.25, 0.25, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	iface := func(impressionEstimates bool) *Interface {
		p, err := New(Config{
			Name: "exact", Universe: u, Catalog: &catalog.Catalog{}, Rounder: estimate.Exact{},
			Objectives: map[Objective]float64{ObjectiveReach: 1}, DefaultObjective: ObjectiveReach,
			ImpressionEstimates: impressionEstimates,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain, impr := iface(false), iface(true)
	for _, tc := range []struct {
		count                 int64
		eligible, impressions float64
		plain, impr           int64 // expected sizes without and with impressions
	}{
		{0, 1, 1, 0, 0},
		{1, 1, 1, 3, 3},           // 2.5
		{3, 1, 1, 8, 8},           // 7.5
		{1, 0.2, 1, 1, 1},         // 0.5: the smallest size that is not 0
		{1, 0.9998, 1, 2, 2},      // 2.4995
		{1, 0.19999, 1, 0, 0},     // 0.499975
		{5, 0.5, 1, 6, 6},         // 6.25
		{3, 0.25, 1, 2, 2},        // 1.875
		{1, 1, 1.5, 3, 4},         // 2.5; 3.75 with impressions
		{1, 0.5, 2, 1, 3},         // 1.25; 2.5 with impressions
		{1, 0.9998, 1.0004, 2, 3}, // 2.4995; 2.50049… with impressions
		{1 << 20, 0.5, 1, 1310720, 1310720},
	} {
		if got := plain.ScaleAndRound(tc.count, tc.eligible, tc.impressions); got != tc.plain {
			t.Errorf("ScaleAndRound(%d, %v, %v) = %d, want %d", tc.count, tc.eligible, tc.impressions, got, tc.plain)
		}
		if got := impr.ScaleAndRound(tc.count, tc.eligible, tc.impressions); got != tc.impr {
			t.Errorf("impressions: ScaleAndRound(%d, %v, %v) = %d, want %d", tc.count, tc.eligible, tc.impressions, got, tc.impr)
		}
	}
}
