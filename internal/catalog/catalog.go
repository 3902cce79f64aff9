// Package catalog builds the per-platform targeting-option catalogs the
// audit crawls: Facebook's restricted interface (393 attributes), Facebook's
// full interface (667), Google (873 attributes plus 2,424 topics), and
// LinkedIn (552) — the counts the paper collected (§3, "Obtaining targeting
// options").
//
// Each option carries a generative model (population.AttrModel) deciding who
// holds it. Options are organised into themed categories whose demographic
// biases, latent factor, and platform-level shifts determine the skew
// distribution the audit later measures. A small set of options is "pinned"
// from the paper's Tables 2–3 with loadings calibrated to the representation
// ratios reported there, so the illustrative-example experiments can find
// the same compositions.
package catalog

import (
	"fmt"
	"math"

	"repro/internal/population"
	"repro/internal/xrand"
)

// Attribute is one targeting option (attribute or topic) in a catalog.
type Attribute struct {
	// Name is the display name, e.g. "Interests — Electrical engineering".
	Name string
	// Category is the option's category, e.g. "Interests".
	Category string
	// Pinned marks options reproduced from the paper's example tables.
	Pinned bool
	// Model decides which users hold the option.
	Model population.AttrModel
}

// Catalog is a platform's full set of targeting options.
type Catalog struct {
	// Platform names the owning interface, e.g. "facebook-restricted".
	Platform string
	// Attributes are the default-list user attributes (KindAttribute).
	Attributes []Attribute
	// Topics are contextual topics (KindTopic; Google only).
	Topics []Attribute
	// Placements are publisher sites in the platform's display network
	// (KindPlacement; Google only). Each placement's audience is the set of
	// users who visit it.
	Placements []Attribute
}

// FindAttr returns the index of the attribute with the given name, or -1.
func (c *Catalog) FindAttr(name string) int {
	for i := range c.Attributes {
		if c.Attributes[i].Name == name {
			return i
		}
	}
	return -1
}

// CategoryTemplate drives generation of one themed category of options.
type CategoryTemplate struct {
	// Name is the category display name.
	Name string
	// Factor is the latent factor index options in this category load on.
	Factor int
	// GenderBias is the mean gender load of the category (positive = male).
	GenderBias float64
	// AgeBias is the mean age load per age range.
	AgeBias [population.NumAgeRanges]float64
	// Weight is the category's relative share of generated options.
	Weight int
}

// PinnedAttr reproduces a named option from the paper's Tables 2–3.
type PinnedAttr struct {
	// Category and Term form the display name "Category — Term".
	Category string
	Term     string
	// BaseRate is the overall prevalence of the option.
	BaseRate float64
	// GenderRep is the target representation ratio toward males (>1 male-
	// skewed, <1 female-skewed, 0 = unspecified/neutral).
	GenderRep float64
	// AgeRep holds target representation ratios per age range
	// (0 = unspecified).
	AgeRep [population.NumAgeRanges]float64
	// Factor is the latent factor the option loads on.
	Factor int
	// FactorBoost is the log-odds boost for factor holders.
	FactorBoost float64
}

// Name returns the option's display name.
func (p PinnedAttr) Name() string { return p.Category + " — " + p.Term }

// Spec configures catalog generation for one platform interface.
type Spec struct {
	// Platform names the interface; it also salts option IDs so different
	// interfaces' options are distinct audiences even on a shared universe.
	Platform string
	// Seed drives the generation draws.
	Seed uint64
	// AttrCount and TopicCount are the catalog sizes to produce (pinned
	// options count toward them).
	AttrCount  int
	TopicCount int
	// Categories and TopicCategories are the themed templates to draw from.
	Categories      []CategoryTemplate
	TopicCategories []CategoryTemplate
	// Pinned lists attribute options reproduced from the paper.
	Pinned []PinnedAttr
	// PinnedTopics lists topic options reproduced from the paper (Google).
	PinnedTopics []PinnedAttr
	// PlacementCount is the number of publisher-site placements to
	// generate (Google only); placement visitor models are drawn from the
	// same category templates as topics.
	PlacementCount int
	// GenderShift is a platform-wide shift of gender loads (LinkedIn's
	// male lean, Facebook's female lean — paper §4.2).
	GenderShift float64
	// AgeShift is a platform-wide shift of age loads (Google's and
	// LinkedIn's lean away from 18-24 and toward 55+).
	AgeShift [population.NumAgeRanges]float64
	// BiasScale scales category demographic biases; lower values produce a
	// more sanitized (less skewed) catalog, as on Facebook's restricted
	// interface.
	BiasScale float64
	// NoiseSigma is the standard deviation of per-option load noise.
	NoiseSigma float64
	// BaseRateLo and BaseRateHi bound the log-uniform option prevalence.
	BaseRateLo, BaseRateHi float64
}

// withDefaults fills unset tuning knobs.
func (s Spec) withDefaults() Spec {
	if s.BiasScale == 0 {
		s.BiasScale = 1
	}
	if s.NoiseSigma == 0 {
		s.NoiseSigma = 0.45
	}
	if s.BaseRateLo == 0 {
		s.BaseRateLo = 0.004
	}
	if s.BaseRateHi == 0 {
		s.BaseRateHi = 0.12
	}
	return s
}

// optionID derives the stable audience identity of a named option.
func optionID(platform, name string) uint64 {
	return xrand.HashString(platform + "/" + name)
}

// Generate builds the catalog described by the spec. Generation is fully
// deterministic in the spec.
func Generate(spec Spec) (*Catalog, error) {
	spec = spec.withDefaults()
	if spec.AttrCount <= 0 {
		return nil, fmt.Errorf("catalog: AttrCount must be positive")
	}
	if len(spec.Categories) == 0 {
		return nil, fmt.Errorf("catalog: no categories")
	}
	if spec.TopicCount > 0 && len(spec.TopicCategories) == 0 {
		return nil, fmt.Errorf("catalog: TopicCount set but no topic categories")
	}
	if len(spec.Pinned) > spec.AttrCount {
		return nil, fmt.Errorf("catalog: %d pinned options exceed AttrCount %d",
			len(spec.Pinned), spec.AttrCount)
	}
	if len(spec.PinnedTopics) > spec.TopicCount {
		return nil, fmt.Errorf("catalog: %d pinned topics exceed TopicCount %d",
			len(spec.PinnedTopics), spec.TopicCount)
	}
	c := &Catalog{Platform: spec.Platform}
	used := make(map[string]bool)

	pinAll := func(ps []PinnedAttr) ([]Attribute, error) {
		out := make([]Attribute, 0, len(ps))
		for _, p := range ps {
			a, err := pinnedAttribute(spec, p)
			if err != nil {
				return nil, err
			}
			if used[a.Name] {
				return nil, fmt.Errorf("catalog: duplicate pinned option %q", a.Name)
			}
			used[a.Name] = true
			out = append(out, a)
		}
		return out, nil
	}

	pinnedAttrs, err := pinAll(spec.Pinned)
	if err != nil {
		return nil, err
	}
	pinnedTopics, err := pinAll(spec.PinnedTopics)
	if err != nil {
		return nil, err
	}
	c.Attributes = pinnedAttrs

	rng := xrand.New(xrand.Mix(spec.Seed, xrand.HashString(spec.Platform)))
	attrs, err := generateOptions(spec, rng, spec.Categories,
		spec.AttrCount-len(spec.Pinned), used)
	if err != nil {
		return nil, err
	}
	c.Attributes = append(c.Attributes, attrs...)

	if spec.TopicCount > 0 {
		topics, err := generateOptions(spec, rng, spec.TopicCategories,
			spec.TopicCount-len(spec.PinnedTopics), used)
		if err != nil {
			return nil, err
		}
		c.Topics = append(pinnedTopics, topics...)
	}
	if spec.PlacementCount > 0 {
		placements, err := generatePlacements(spec, rng, spec.TopicCategories, spec.PlacementCount, used)
		if err != nil {
			return nil, err
		}
		c.Placements = placements
	}
	return c, nil
}

// generatePlacements emits publisher-site placements: domain-styled names
// whose visitor models come from the same themed categories as topics, with
// slightly rarer base rates (a single site reaches fewer users than a whole
// topic).
func generatePlacements(spec Spec, rng *xrand.Rand, cats []CategoryTemplate, count int, used map[string]bool) ([]Attribute, error) {
	raw, err := generateOptions(spec, rng, cats, count, used)
	if err != nil {
		return nil, err
	}
	out := make([]Attribute, len(raw))
	for i, a := range raw {
		domain := domainize(a.Name)
		if used[domain] {
			domain = fmt.Sprintf("%s%d.example", domain[:len(domain)-len(".example")], i)
		}
		used[domain] = true
		m := a.Model
		m.ID = optionID(spec.Platform, domain)
		m.BaseLogit -= 1.2 // individual sites are nicher than topics
		out[i] = Attribute{Name: domain, Category: "Placements", Model: m}
	}
	return out, nil
}

// domainize turns an option name into a plausible publisher domain.
func domainize(name string) string {
	var b []rune
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b = append(b, r)
		case r >= 'A' && r <= 'Z':
			b = append(b, r+('a'-'A'))
		}
	}
	if len(b) > 24 {
		b = b[:24]
	}
	return string(b) + ".example"
}

// pinnedAttribute converts a paper-pinned option into an Attribute whose
// loadings approximate the paper's reported representation ratios: at low
// base rates a rep ratio r toward a population corresponds to a log-odds
// load of ln(r).
func pinnedAttribute(spec Spec, p PinnedAttr) (Attribute, error) {
	if p.BaseRate <= 0 || p.BaseRate >= 1 {
		return Attribute{}, fmt.Errorf("catalog: pinned %q: BaseRate %v out of (0,1)", p.Name(), p.BaseRate)
	}
	m := population.AttrModel{
		ID:          optionID(spec.Platform, p.Name()),
		BaseLogit:   population.Logit(p.BaseRate),
		Factor:      p.Factor,
		FactorBoost: p.FactorBoost,
	}
	if p.GenderRep > 0 {
		m.GenderLoad = math.Log(p.GenderRep)
	}
	for r, rep := range p.AgeRep {
		if rep > 0 {
			m.AgeLoad[r] = math.Log(rep)
		}
	}
	return Attribute{Name: p.Name(), Category: p.Category, Pinned: true, Model: m}, nil
}

// generateOptions emits count options across the weighted categories.
func generateOptions(spec Spec, rng *xrand.Rand, cats []CategoryTemplate, count int, used map[string]bool) ([]Attribute, error) {
	totalWeight := 0
	for _, ct := range cats {
		if ct.Weight <= 0 {
			return nil, fmt.Errorf("catalog: category %q has non-positive weight", ct.Name)
		}
		if _, ok := termPools[ct.Factor]; !ok {
			return nil, fmt.Errorf("catalog: category %q references factor %d with no term pool", ct.Name, ct.Factor)
		}
		totalWeight += ct.Weight
	}
	// Per-category target counts by largest remainder.
	targets := make([]int, len(cats))
	assigned := 0
	for i, ct := range cats {
		targets[i] = count * ct.Weight / totalWeight
		assigned += targets[i]
	}
	for i := 0; assigned < count; i = (i + 1) % len(cats) {
		targets[i]++
		assigned++
	}

	out := make([]Attribute, 0, count)
	for ci, ct := range cats {
		pool := termPools[ct.Factor]
		emitted := 0
		for ti := 0; emitted < targets[ci]; ti++ {
			if ti >= len(pool)*len(modifiers) {
				return nil, fmt.Errorf("catalog: category %q exhausted its name space at %d options", ct.Name, emitted)
			}
			term := modifiers[ti/len(pool)] + pool[ti%len(pool)]
			name := ct.Name + " — " + term
			if used[name] {
				continue
			}
			used[name] = true
			out = append(out, generatedAttribute(spec, rng, ct, name))
			emitted++
		}
	}
	return out, nil
}

// generatedAttribute draws one option's model from its category template.
func generatedAttribute(spec Spec, rng *xrand.Rand, ct CategoryTemplate, name string) Attribute {
	m := population.AttrModel{
		ID:          optionID(spec.Platform, name),
		BaseLogit:   population.Logit(rng.LogUniform(spec.BaseRateLo, spec.BaseRateHi)),
		GenderLoad:  spec.GenderShift + spec.BiasScale*ct.GenderBias + spec.NoiseSigma*rng.NormFloat64(),
		Factor:      ct.Factor,
		FactorBoost: 0.7 + math.Abs(0.5*rng.NormFloat64()),
	}
	for r := 0; r < population.NumAgeRanges; r++ {
		m.AgeLoad[r] = spec.AgeShift[r] + spec.BiasScale*ct.AgeBias[r] +
			0.6*spec.NoiseSigma*rng.NormFloat64()
	}
	return Attribute{Name: name, Category: ct.Name, Model: m}
}
