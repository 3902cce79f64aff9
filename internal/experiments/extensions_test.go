package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mitigation"
	"repro/internal/platform"
)

func TestLookalikeStudy(t *testing.T) {
	r := testRunner(t)
	rows, err := r.LookalikeStudy(classMale(), 300, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 2 interfaces × (seed + expansion).
	if len(rows) != 4 {
		t.Fatalf("lookalike study produced %d rows, want 4", len(rows))
	}
	byKey := make(map[string]LookalikeRow)
	for _, row := range rows {
		byKey[row.Platform+"/"+row.Audience] = row
	}
	seedFull := byKey[catalog.PlatformFacebook+"/pii"]
	lookFull := byKey[catalog.PlatformFacebook+"/lookalike"]
	special := byKey[catalog.PlatformFacebookRestricted+"/special-ad"]
	if seedFull.Platform == "" || lookFull.Platform == "" || special.Platform == "" {
		t.Fatalf("missing expected rows: %+v", rows)
	}
	// The seed is male-heavy by construction.
	if !math.IsInf(seedFull.RepRatio, 1) && seedFull.RepRatio < 2 {
		t.Errorf("seed rep ratio %v, want strongly male-skewed", seedFull.RepRatio)
	}
	// Standard lookalike propagates the skew past the four-fifths bound.
	if lookFull.RepRatio < core.FourFifthsHigh {
		t.Errorf("standard lookalike ratio %v, want > %v", lookFull.RepRatio, core.FourFifthsHigh)
	}
	// The special-ad adjustment reduces — the key question is by how much.
	if special.RepRatio >= lookFull.RepRatio {
		t.Errorf("special-ad ratio %v not below standard lookalike %v",
			special.RepRatio, lookFull.RepRatio)
	}
}

func TestLookalikeStudyNeedsDeployment(t *testing.T) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 3, UniverseSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var providers []core.Provider
	for _, p := range d.Interfaces() {
		providers = append(providers, core.NewPlatformProvider(p))
	}
	r, err := NewRunner(Config{Providers: providers, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LookalikeStudy(classMale(), 100, 0.05); !errors.Is(err, ErrNeedsDeployment) {
		t.Fatalf("want ErrNeedsDeployment, got %v", err)
	}
}

func TestMitigationStudy(t *testing.T) {
	r := testRunner(t)
	rows, err := r.MitigationStudy(classMale(), mitigation.EvalConfig{
		HonestAdvertisers:         8,
		DiscriminatoryAdvertisers: 6,
		CampaignsPerAdvertiser:    4,
		PoolK:                     60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("mitigation study produced %d rows, want 4", len(rows))
	}
	for _, row := range rows {
		if row.AUC < 0.8 {
			t.Errorf("%s: AUC %v, want >= 0.8", row.Platform, row.AUC)
		}
		if row.DiscrimMeanScore <= row.HonestMeanScore {
			t.Errorf("%s: discriminatory mean %v not above honest mean %v",
				row.Platform, row.DiscrimMeanScore, row.HonestMeanScore)
		}
	}
}

func TestRenderExtensions(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	lrows, err := r.LookalikeStudy(classMale(), 300, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderLookalikeRows(&buf, lrows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "special-ad") {
		t.Error("lookalike render missing special-ad row")
	}
	buf.Reset()
	mrows, err := r.MitigationStudy(classMale(), mitigation.EvalConfig{
		HonestAdvertisers: 4, DiscriminatoryAdvertisers: 3, CampaignsPerAdvertiser: 3, PoolK: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderMitigationRows(&buf, mrows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AUC") {
		t.Error("mitigation render missing header")
	}
}

func TestBuildReport(t *testing.T) {
	r := testRunner(t)
	rep, err := r.BuildReport()
	if err != nil {
		t.Fatal(err)
	}
	// Every checkable claim holds at this scale, as at the committed one.
	if len(rep.Claims) != 18 {
		t.Fatalf("report has %d claims, want 18", len(rep.Claims))
	}
	if rep.Passed() != len(rep.Claims) {
		for _, c := range rep.Claims {
			if !c.Holds {
				t.Logf("failed claim [%s] %s: paper %q, measured %q", c.Section, c.Statement, c.Paper, c.Measured)
			}
		}
		t.Fatalf("only %d/%d claims hold", rep.Passed(), len(rep.Claims))
	}
	var buf bytes.Buffer
	if err := WriteReportMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Reproduction report", "four-fifths", "✅"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestDeliveryStudy(t *testing.T) {
	r := testRunner(t)
	rows, err := r.DeliveryStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("delivery study has %d rows, want 4", len(rows))
	}
	byName := map[string]DeliveryRow{}
	for _, row := range rows {
		byName[row.Campaign] = row
		// All campaigns targeted the same neutral audience.
		if row.TargetedRatio < 0.9 || row.TargetedRatio > 1.1 {
			t.Errorf("%s: targeted ratio %v should be neutral", row.Campaign, row.TargetedRatio)
		}
	}
	male := byName["male-engaging"]
	female := byName["female-engaging"]
	if male.DeliveredRatio < core.FourFifthsHigh {
		t.Errorf("male-engaging delivered ratio %v should violate four-fifths", male.DeliveredRatio)
	}
	if female.DeliveredRatio > core.FourFifthsLow {
		t.Errorf("female-engaging delivered ratio %v should violate four-fifths downward", female.DeliveredRatio)
	}
	var buf bytes.Buffer
	if err := RenderDeliveryRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delivered_ratio") {
		t.Error("delivery render missing header")
	}
}

func TestRetargetingStudy(t *testing.T) {
	r := testRunner(t)
	rows, err := r.RetargetingStudy(classMale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("retargeting study has %d rows", len(rows))
	}
	// The male-themed pixel audience composed with the top male attribute
	// must exceed the pixel audience alone.
	var alone, composed float64
	for _, row := range rows {
		if strings.HasPrefix(row.Desc, "pixel: engineparts.example") {
			if strings.Contains(row.Desc, "∧") {
				composed = row.RepRatio
			} else {
				alone = row.RepRatio
			}
		}
	}
	if alone < 1.25 {
		t.Errorf("pixel audience ratio %v should already be skewed", alone)
	}
	if !math.IsInf(composed, 1) && composed <= alone {
		t.Errorf("composed ratio %v not above pixel-alone %v", composed, alone)
	}
	var buf bytes.Buffer
	if err := RenderRetargetingRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "restricted") {
		t.Error("retargeting render missing platform")
	}
}
