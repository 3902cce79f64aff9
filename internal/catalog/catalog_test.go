package catalog

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/population"
)

// catOf returns a helper that unwraps (catalog, error) builder results.
func catOf(t *testing.T) func(*Catalog, error) *Catalog {
	return func(c *Catalog, err error) *Catalog {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func TestFactorsWellFormed(t *testing.T) {
	fs := Factors()
	if len(fs) != NumFactors {
		t.Fatalf("Factors() returned %d, want %d", len(fs), NumFactors)
	}
	if len(fs) > population.MaxFactors {
		t.Fatalf("too many factors: %d > %d", len(fs), population.MaxFactors)
	}
	for i, f := range fs {
		if f.Rate <= 0 || f.Rate >= 1 {
			t.Errorf("factor %d rate %v out of (0,1)", i, f.Rate)
		}
	}
}

func TestEveryFactorHasTermPool(t *testing.T) {
	for f := 0; f < NumFactors; f++ {
		pool, ok := termPools[f]
		if !ok || len(pool) == 0 {
			t.Errorf("factor %d has no term pool", f)
		}
	}
}

func TestTermPoolsUniqueWithin(t *testing.T) {
	for f, pool := range termPools {
		seen := make(map[string]bool)
		for _, term := range pool {
			if seen[term] {
				t.Errorf("factor %d pool has duplicate term %q", f, term)
			}
			seen[term] = true
		}
	}
}

func TestPaperCatalogSizes(t *testing.T) {
	cases := []struct {
		name   string
		attrs  int
		topics int
		build  func() (*Catalog, error)
	}{
		{PlatformFacebookRestricted, FacebookRestrictedAttrCount, 0, func() (*Catalog, error) { return FacebookRestricted(1) }},
		{PlatformFacebook, FacebookAttrCount, 0, func() (*Catalog, error) { return Facebook(1) }},
		{PlatformGoogle, GoogleAttrCount, GoogleTopicCount, func() (*Catalog, error) { return Google(1) }},
		{PlatformLinkedIn, LinkedInAttrCount, 0, func() (*Catalog, error) { return LinkedIn(1) }},
	}
	for _, c := range cases {
		cat := catOf(t)(c.build())
		if cat.Platform != c.name {
			t.Errorf("%s: platform = %q", c.name, cat.Platform)
		}
		if len(cat.Attributes) != c.attrs {
			t.Errorf("%s: %d attributes, want %d", c.name, len(cat.Attributes), c.attrs)
		}
		if len(cat.Topics) != c.topics {
			t.Errorf("%s: %d topics, want %d", c.name, len(cat.Topics), c.topics)
		}
	}
}

func TestNamesUnique(t *testing.T) {
	for _, build := range []func() (*Catalog, error){
		func() (*Catalog, error) { return FacebookRestricted(1) },
		func() (*Catalog, error) { return Facebook(1) },
		func() (*Catalog, error) { return Google(1) },
		func() (*Catalog, error) { return LinkedIn(1) },
	} {
		c := catOf(t)(build())
		seen := make(map[string]bool)
		for _, a := range append(append([]Attribute{}, c.Attributes...), c.Topics...) {
			if seen[a.Name] {
				t.Fatalf("%s: duplicate name %q", c.Platform, a.Name)
			}
			seen[a.Name] = true
			if !strings.Contains(a.Name, " — ") {
				t.Fatalf("%s: malformed name %q", c.Platform, a.Name)
			}
		}
	}
}

func TestIDsUniqueAcrossInterfaces(t *testing.T) {
	// FB full and FB restricted share a universe; their option IDs must not
	// collide so they denote independent audiences.
	full := catOf(t)(Facebook(1))
	restricted := catOf(t)(FacebookRestricted(1))
	ids := make(map[uint64]string)
	for _, c := range []*Catalog{full, restricted} {
		for _, a := range append(append([]Attribute{}, c.Attributes...), c.Topics...) {
			key := c.Platform + "/" + a.Name
			if prev, ok := ids[a.Model.ID]; ok {
				t.Fatalf("ID collision between %q and %q", prev, key)
			}
			ids[a.Model.ID] = key
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := catOf(t)(LinkedIn(7))
	b := catOf(t)(LinkedIn(7))
	if len(a.Attributes) != len(b.Attributes) {
		t.Fatal("sizes differ across identical builds")
	}
	for i := range a.Attributes {
		if a.Attributes[i] != b.Attributes[i] {
			t.Fatalf("attribute %d differs across identical builds", i)
		}
	}
	c := catOf(t)(LinkedIn(8))
	diff := false
	for i := range a.Attributes {
		if a.Attributes[i].Model.GenderLoad != c.Attributes[i].Model.GenderLoad {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical loadings")
	}
}

func TestPinnedPresent(t *testing.T) {
	fbr := catOf(t)(FacebookRestricted(1))
	for _, name := range []string{
		"Interests — Electrical engineering",
		"Interests — Cars",
		"Interests — Multi-level marketing",
		"Interests — Reverse mortgage",
	} {
		i := fbr.FindAttr(name)
		if i < 0 {
			t.Fatalf("pinned %q missing from restricted catalog", name)
		}
		if !fbr.Attributes[i].Pinned {
			t.Fatalf("%q not marked pinned", name)
		}
	}
	g := catOf(t)(Google(1))
	if !slices.ContainsFunc(g.Topics, func(a Attribute) bool { return a.Name == "Martial Arts — Kickboxing" }) {
		t.Fatal("pinned Google topic missing")
	}
	if g.FindAttr("Gamers — Shooter Game Fans") < 0 {
		t.Fatal("pinned Google attribute missing")
	}
	if g.FindAttr("Nope — Not here") != -1 {
		t.Fatal("Find should return -1 for unknown names")
	}
}

func TestPinnedLoadingsMatchTargets(t *testing.T) {
	fbr := catOf(t)(FacebookRestricted(1))
	i := fbr.FindAttr("Interests — Electrical engineering")
	m := fbr.Attributes[i].Model
	if got, want := m.GenderLoad, math.Log(3.71); math.Abs(got-want) > 1e-9 {
		t.Errorf("EE GenderLoad = %v, want ln(3.71) = %v", got, want)
	}
	if got, want := m.AgeLoad[population.Age18to24], math.Log(1.63); math.Abs(got-want) > 1e-9 {
		t.Errorf("EE AgeLoad[18-24] = %v, want ln(1.63) = %v", got, want)
	}
	// Female-skewed option must carry a negative gender load.
	j := fbr.FindAttr("Interests — Multi-level marketing")
	if l := fbr.Attributes[j].Model.GenderLoad; l >= 0 {
		t.Errorf("MLM GenderLoad = %v, want negative (female-skewed)", l)
	}
}

func TestPlatformGenderLean(t *testing.T) {
	// LinkedIn's generated options must lean male relative to Facebook's
	// (paper §4.2).
	li := catOf(t)(LinkedIn(1))
	fb := catOf(t)(Facebook(1))
	mean := func(c *Catalog) float64 {
		var s float64
		n := 0
		for _, a := range c.Attributes {
			if a.Pinned {
				continue
			}
			s += a.Model.GenderLoad
			n++
		}
		return s / float64(n)
	}
	if mean(li) <= mean(fb) {
		t.Fatalf("LinkedIn mean gender load %v not above Facebook's %v", mean(li), mean(fb))
	}
	if mean(fb) >= 0 {
		t.Fatalf("Facebook mean gender load %v, want negative (female lean)", mean(fb))
	}
}

func TestPlatformAgeLean(t *testing.T) {
	// Google and LinkedIn lean away from 18-24 and toward 55+.
	for _, build := range []func() (*Catalog, error){
		func() (*Catalog, error) { return Google(1) },
		func() (*Catalog, error) { return LinkedIn(1) },
	} {
		c := catOf(t)(build())
		var young, old float64
		n := 0
		for _, a := range c.Attributes {
			if a.Pinned {
				continue
			}
			young += a.Model.AgeLoad[population.Age18to24]
			old += a.Model.AgeLoad[population.Age55Plus]
			n++
		}
		if young/float64(n) >= 0 {
			t.Errorf("%s: mean 18-24 load %v, want negative", c.Platform, young/float64(n))
		}
		if old/float64(n) <= 0 {
			t.Errorf("%s: mean 55+ load %v, want positive", c.Platform, old/float64(n))
		}
	}
}

func TestRestrictedMoreSanitized(t *testing.T) {
	// The restricted interface's generated loadings must be tamer than the
	// full interface's (lower spread of |GenderLoad|).
	fbr := catOf(t)(FacebookRestricted(1))
	fb := catOf(t)(Facebook(1))
	meanAbs := func(c *Catalog) float64 {
		var s float64
		n := 0
		for _, a := range c.Attributes {
			if a.Pinned {
				continue
			}
			s += math.Abs(a.Model.GenderLoad)
			n++
		}
		return s / float64(n)
	}
	if meanAbs(fbr) >= meanAbs(fb) {
		t.Fatalf("restricted |gender load| %v not below full %v", meanAbs(fbr), meanAbs(fb))
	}
}

func TestGenerateValidation(t *testing.T) {
	base := Spec{Platform: "x", AttrCount: 10, Categories: interestCategories()}
	if _, err := Generate(base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Platform: "x", AttrCount: 0, Categories: interestCategories()},
		{Platform: "x", AttrCount: 10},
		{Platform: "x", AttrCount: 10, Categories: interestCategories(), TopicCount: 5},
		{Platform: "x", AttrCount: 1, Categories: interestCategories(),
			Pinned: []PinnedAttr{pin("A", "b", 2, FactorMotors), pin("A", "c", 2, FactorMotors)}},
		{Platform: "x", AttrCount: 10, Categories: interestCategories(),
			Pinned: []PinnedAttr{{Category: "A", Term: "b", BaseRate: 0, GenderRep: 2}}},
		{Platform: "x", AttrCount: 10, Categories: interestCategories(),
			Pinned: []PinnedAttr{pin("A", "b", 2, FactorMotors), pin("A", "b", 2, FactorMotors)}},
		{Platform: "x", AttrCount: 10,
			Categories: []CategoryTemplate{{Name: "A", Factor: FactorMotors, Weight: 0}}},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestBaseRatesWithinBounds(t *testing.T) {
	c := catOf(t)(Facebook(1))
	for _, a := range c.Attributes {
		if a.Pinned {
			continue
		}
		p := 1 / (1 + math.Exp(-a.Model.BaseLogit))
		if p < 0.003 || p > 0.13 {
			t.Fatalf("%q base rate %v outside configured bounds", a.Name, p)
		}
	}
}

func TestAttrFactorsValid(t *testing.T) {
	c := catOf(t)(Google(1))
	for _, a := range append(append([]Attribute{}, c.Attributes...), c.Topics...) {
		if a.Model.Factor < 0 || a.Model.Factor >= NumFactors {
			t.Fatalf("%q has invalid factor %d", a.Name, a.Model.Factor)
		}
	}
}

func TestGooglePlacements(t *testing.T) {
	g := catOf(t)(Google(1))
	if len(g.Placements) != GooglePlacementCount {
		t.Fatalf("%d placements, want %d", len(g.Placements), GooglePlacementCount)
	}
	seen := make(map[string]bool)
	for _, p := range g.Placements {
		if !strings.HasSuffix(p.Name, ".example") {
			t.Fatalf("placement %q is not a domain", p.Name)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate placement %q", p.Name)
		}
		seen[p.Name] = true
		if p.Category != "Placements" {
			t.Fatalf("placement category %q", p.Category)
		}
	}
	fb := catOf(t)(Facebook(1))
	if len(fb.Placements) != 0 {
		t.Fatal("facebook should have no placements")
	}
}
