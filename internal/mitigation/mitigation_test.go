package mitigation

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/population"
)

func TestCampaignSkewScoring(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	cases := []struct {
		ratios map[string]float64
		want   float64
	}{
		{map[string]float64{"male": 1.0}, 0},                                  // parity
		{map[string]float64{"male": 1.25}, 0},                                 // at the bound
		{map[string]float64{"male": 1.25 * math.E}, 1},                        // e beyond the bound
		{map[string]float64{"male": 1 / (1.25 * math.E)}, 1},                  // symmetric under-representation
		{map[string]float64{"male": 1.0, "18-24": 2.5}, math.Log(2.5 / 1.25)}, // worst class wins
		{map[string]float64{"male": math.Inf(1)}, 3 * math.Log(1.25)},         // capped infinity: 4b - b
	}
	for i, c := range cases {
		got, err := d.campaignSkew(c.ratios)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: skew = %v, want %v", i, got, c.want)
		}
	}
	if _, err := d.campaignSkew(nil); err == nil {
		t.Error("empty ratios accepted")
	}
}

// Campaigns returns how many outcomes an advertiser has accumulated.
func (d *Detector) Campaigns(advertiser string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.state[advertiser]
	if !ok {
		return 0
	}
	return st.campaigns
}

func TestObserveAndScore(t *testing.T) {
	d := NewDetector(DetectorConfig{MinCampaigns: 2, FlagScore: 0.3})
	obs := func(adv string, r float64) {
		if err := d.Observe(CampaignOutcome{Advertiser: adv, Ratios: map[string]float64{"male": r}}); err != nil {
			t.Fatal(err)
		}
	}
	// Honest: one mildly skewed campaign among neutral ones.
	obs("honest", 1.0)
	obs("honest", 1.5)
	obs("honest", 0.9)
	// Discriminatory: consistently skewed.
	obs("bad", 4.0)
	obs("bad", 5.0)
	obs("bad", 3.5)
	if hs, bs := d.Score("honest"), d.Score("bad"); hs >= bs {
		t.Fatalf("honest score %v not below bad score %v", hs, bs)
	}
	flagged := d.Flagged()
	if len(flagged) != 1 || flagged[0] != "bad" {
		t.Fatalf("flagged = %v", flagged)
	}
	if d.Campaigns("bad") != 3 || d.Campaigns("nobody") != 0 {
		t.Fatal("campaign counts wrong")
	}
	if d.Score("nobody") != 0 {
		t.Fatal("unknown advertiser should score 0")
	}
}

func TestMinCampaignsGate(t *testing.T) {
	d := NewDetector(DetectorConfig{MinCampaigns: 5, FlagScore: 0.1})
	for i := 0; i < 4; i++ {
		if err := d.Observe(CampaignOutcome{Advertiser: "bad", Ratios: map[string]float64{"male": 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Flagged(); len(got) != 0 {
		t.Fatalf("flagged %v with insufficient evidence", got)
	}
}

func TestObserveValidation(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	if err := d.Observe(CampaignOutcome{Advertiser: "", Ratios: map[string]float64{"male": 1}}); err == nil {
		t.Error("empty advertiser accepted")
	}
	if err := d.Observe(CampaignOutcome{Advertiser: "a"}); err == nil {
		t.Error("empty ratios accepted")
	}
}

func TestConcurrentObserve(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = d.Observe(CampaignOutcome{Advertiser: "a", Ratios: map[string]float64{"male": 2}})
			}
		}()
	}
	wg.Wait()
	if got := d.Campaigns("a"); got != 400 {
		t.Fatalf("campaigns = %d, want 400", got)
	}
}

func TestFlaggedAdaptive(t *testing.T) {
	d := NewDetector(DetectorConfig{MinCampaigns: 1})
	obs := func(adv string, r float64) {
		if err := d.Observe(CampaignOutcome{Advertiser: adv, Ratios: map[string]float64{"male": r}}); err != nil {
			t.Fatal(err)
		}
	}
	// A baseline of mildly skewed honest advertisers and one extreme
	// outlier: adaptive flagging must pick exactly the outlier even though
	// the honest baseline itself violates four-fifths.
	for i := 0; i < 12; i++ {
		obs(fmt.Sprintf("honest-%d", i), 1.5+0.05*float64(i%3))
	}
	obs("outlier", 30)
	obs("outlier", 25)
	got := d.FlaggedAdaptive(3)
	if len(got) != 1 || got[0] != "outlier" {
		t.Fatalf("FlaggedAdaptive = %v, want [outlier]", got)
	}
}

func TestFlaggedAdaptiveDegenerate(t *testing.T) {
	d := NewDetector(DetectorConfig{MinCampaigns: 1})
	for i := 0; i < 5; i++ {
		if err := d.Observe(CampaignOutcome{
			Advertiser: fmt.Sprintf("a-%d", i),
			Ratios:     map[string]float64{"male": 1.0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.FlaggedAdaptive(3); len(got) != 0 {
		t.Fatalf("identical advertisers flagged: %v", got)
	}
	empty := NewDetector(DetectorConfig{})
	if got := empty.FlaggedAdaptive(3); got != nil {
		t.Fatalf("empty detector flagged: %v", got)
	}
}

func TestAUC(t *testing.T) {
	auc, err := AUC([]float64{3, 4}, []float64{1, 2})
	if err != nil || auc != 1 {
		t.Fatalf("perfect separation AUC = %v, %v", auc, err)
	}
	auc, err = AUC([]float64{1, 2}, []float64{3, 4})
	if err != nil || auc != 0 {
		t.Fatalf("inverted AUC = %v", auc)
	}
	auc, err = AUC([]float64{1, 1}, []float64{1, 1})
	if err != nil || auc != 0.5 {
		t.Fatalf("tied AUC = %v", auc)
	}
	if _, err := AUC(nil, []float64{1}); err == nil {
		t.Error("empty positives accepted")
	}
}

func TestEvaluateSeparatesAdvertisers(t *testing.T) {
	// End-to-end §5 evaluation: outcome-based detection must cleanly
	// separate consistently-skewed advertisers from honest ones on the
	// simulated restricted interface.
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 17, UniverseSize: 25000})
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAuditor(core.NewPlatformProvider(d.FacebookRestricted))
	rep, err := Evaluate(a, core.GenderClass(population.Male), EvalConfig{
		HonestAdvertisers:         12,
		DiscriminatoryAdvertisers: 8,
		CampaignsPerAdvertiser:    5,
		PoolK:                     80,
		Seed:                      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AUC < 0.9 {
		t.Errorf("AUC = %v, want >= 0.9 (outcome scores should separate cleanly)", rep.AUC)
	}
	if rep.DiscrimMeanScore <= rep.HonestMeanScore {
		t.Errorf("discriminatory mean %v not above honest mean %v",
			rep.DiscrimMeanScore, rep.HonestMeanScore)
	}
	if rep.TPR() < 0.75 {
		t.Errorf("TPR = %v, want >= 0.75", rep.TPR())
	}
	if rep.FalsePositives > 3 {
		t.Errorf("%d honest advertisers flagged", rep.FalsePositives)
	}
}
