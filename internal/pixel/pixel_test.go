package pixel

import (
	"errors"
	"testing"

	"repro/internal/audience"
	"repro/internal/population"
)

func testUniverse(t *testing.T) *population.Universe {
	t.Helper()
	u, err := population.New(population.Config{
		Seed:      5,
		Size:      30000,
		MaleShare: 0.5,
		AgeShare:  [population.NumAgeRanges]float64{0.25, 0.25, 0.25, 0.25},
		Factors:   population.UniformFactors(4, 0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func carSite() Site {
	return Site{
		Domain: "sportscars.example",
		Visitors: population.AttrModel{
			ID:         9001,
			BaseLogit:  population.Logit(0.05),
			GenderLoad: 1.5,
			Factor:     0,
		},
	}
}

// Sites returns the registered site count.
func (t *Tracker) Sites() int { return len(t.sites) }

func TestAddSite(t *testing.T) {
	tr := NewTracker(testUniverse(t))
	id, err := tr.AddSite(carSite())
	if err != nil || id != 0 {
		t.Fatalf("AddSite = %d, %v", id, err)
	}
	if _, err := tr.AddSite(carSite()); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	if _, err := tr.AddSite(Site{}); err == nil {
		t.Fatal("empty domain accepted")
	}
	if tr.Sites() != 1 {
		t.Fatalf("Sites = %d", tr.Sites())
	}
	if _, err := tr.Site(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Site(5); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("want ErrUnknownSite, got %v", err)
	}
}

func TestFunnelNesting(t *testing.T) {
	tr := NewTracker(testUniverse(t))
	id, _ := tr.AddSite(carSite())
	views, err := tr.Audience(id, EventPageView, MaxWindowDays)
	if err != nil {
		t.Fatal(err)
	}
	carts, err := tr.Audience(id, EventAddToCart, MaxWindowDays)
	if err != nil {
		t.Fatal(err)
	}
	buys, err := tr.Audience(id, EventPurchase, MaxWindowDays)
	if err != nil {
		t.Fatal(err)
	}
	if views.Count() == 0 {
		t.Fatal("no visitors")
	}
	// Strict funnel: purchase ⊂ cart ⊂ view.
	if audience.CountAnd(carts, views) != carts.Count() {
		t.Fatal("cart audience not nested in views")
	}
	if audience.CountAnd(buys, carts) != buys.Count() {
		t.Fatal("purchase audience not nested in carts")
	}
	if !(buys.Count() < carts.Count() && carts.Count() < views.Count()) {
		t.Fatalf("funnel not shrinking: %d/%d/%d", views.Count(), carts.Count(), buys.Count())
	}
	// Rough funnel rates.
	cartRate := float64(carts.Count()) / float64(views.Count())
	if cartRate < 0.25 || cartRate > 0.35 {
		t.Errorf("cart rate %.2f, want ~0.30", cartRate)
	}
}

func TestWindowSubsampling(t *testing.T) {
	tr := NewTracker(testUniverse(t))
	id, _ := tr.AddSite(carSite())
	full, _ := tr.Audience(id, EventPageView, MaxWindowDays)
	month, err := tr.Audience(id, EventPageView, 30)
	if err != nil {
		t.Fatal(err)
	}
	// 30-day window ≈ 1/6 of the 180-day audience, nested within it.
	if audience.CountAnd(month, full) != month.Count() {
		t.Fatal("window audience not nested in full audience")
	}
	frac := float64(month.Count()) / float64(full.Count())
	if frac < 0.12 || frac > 0.22 {
		t.Errorf("30-day fraction %.3f, want ~0.167", frac)
	}
}

func TestWindowValidation(t *testing.T) {
	tr := NewTracker(testUniverse(t))
	id, _ := tr.AddSite(carSite())
	for _, w := range []int{0, -1, 181} {
		if _, err := tr.Audience(id, EventPageView, w); !errors.Is(err, ErrBadWindow) {
			t.Fatalf("window %d: want ErrBadWindow, got %v", w, err)
		}
	}
	if _, err := tr.Audience(9, EventPageView, 30); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("want ErrUnknownSite, got %v", err)
	}
	if _, err := tr.Audience(id, Event(9), 30); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("want ErrUnknownEvent, got %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	u := testUniverse(t)
	a := NewTracker(u)
	b := NewTracker(u)
	idA, _ := a.AddSite(carSite())
	idB, _ := b.AddSite(carSite())
	setA, _ := a.Audience(idA, EventPurchase, 60)
	setB, _ := b.Audience(idB, EventPurchase, 60)
	if !audience.Equal(setA, setB) {
		t.Fatal("trackers diverge")
	}
}

func TestVisitorSkewPropagates(t *testing.T) {
	// A male-skewed site produces male-skewed pixel audiences at every
	// funnel depth — retargeting inherits the site's demographic skew.
	u := testUniverse(t)
	tr := NewTracker(u)
	id, _ := tr.AddSite(carSite())
	for _, e := range []Event{EventPageView, EventAddToCart, EventPurchase} {
		set, err := tr.Audience(id, e, MaxWindowDays)
		if err != nil {
			t.Fatal(err)
		}
		m := float64(audience.CountAnd(set, u.GenderSet(population.Male)))
		f := float64(audience.CountAnd(set, u.GenderSet(population.Female)))
		if f == 0 {
			continue
		}
		if ratio := m / f; ratio < 2 {
			t.Errorf("%s audience ratio %.2f, want male-skewed", e, ratio)
		}
	}
}

func TestEventStrings(t *testing.T) {
	if EventPageView.String() != "page-view" || EventPurchase.String() != "purchase" {
		t.Fatal("event strings wrong")
	}
}

func TestReturnedSetIsACopy(t *testing.T) {
	tr := NewTracker(testUniverse(t))
	id, _ := tr.AddSite(carSite())
	a, _ := tr.Audience(id, EventPageView, MaxWindowDays)
	before := a.Count()
	a.Clear()
	b, _ := tr.Audience(id, EventPageView, MaxWindowDays)
	if b.Count() != before {
		t.Fatal("mutating a returned audience corrupted the tracker cache")
	}
}
