package platform

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/targeting"
)

// DefaultUSShare is the fraction of each simulated universe located in the
// US. The paper's measurements scope to U.S. users via location targeting;
// the platform totals below are US figures, so the reporting scale factor
// divides by this share.
const DefaultUSShare = 0.85

// US-scale platform population totals the simulators report at. These come
// from the paper's recall percentages (e.g. a 5M recall described as 4.17 %
// of Facebook's females implies ≈120M females; LinkedIn's 560K at 0.79 %
// implies ≈71M females). Google's statistic counts impressions over its
// display network, hence the much larger total.
const (
	FacebookTotalUsers = 240_000_000
	GoogleTotalUsers   = 2_400_000_000
	LinkedInTotalUsers = 160_000_000
)

// DeployOptions sizes a simulated deployment.
type DeployOptions struct {
	// Seed drives all universes and catalogs.
	Seed uint64
	// UniverseSize is the number of simulated users per platform. Larger
	// sizes sharpen small-audience statistics at linear cost. The zero
	// value selects 1<<17.
	UniverseSize int
	// NoLatentFactors disables the latent interest factors, making
	// attribute memberships conditionally independent given demographics.
	// Used by the factor ablation (DESIGN.md §4.1).
	NoLatentFactors bool
	// ExactEstimates replaces every platform's rounding scheme with exact
	// counts. Used by the rounding ablation (DESIGN.md §4.3).
	ExactEstimates bool
	// UniformActivity disables the heavy-tailed per-user activity offsets,
	// for the activity ablation.
	UniformActivity bool
	// Compressed holds every interface's catalog option audiences only in
	// compressed form (Config.CSetOnly), on full and shard deployments
	// alike: the posture a snapshot boot serves. It trades query speed for
	// memory, letting a 2^24-user shard fit where a dense catalog would
	// not; answers are identical on both postures.
	Compressed bool
	// ShardSpans restricts every universe to the given global-ID spans
	// (population.NewShard): each platform materializes only the spanned
	// users, with all draws still hashed by global ID so the shard is
	// bit-identical to that slice of the full deployment. nil builds full
	// universes; a non-nil empty slice builds a zero-user metadata
	// deployment — catalogs, rules, rounders, and objectives with nobody in
	// them — which is the cluster coordinator's validation and scaling
	// view.
	ShardSpans []population.Span
	// Metrics receives every interface's counters; nil selects the
	// process-wide obs.Default() registry.
	Metrics *obs.Registry
}

// withDefaults fills defaults.
func (o DeployOptions) withDefaults() DeployOptions {
	if o.Seed == 0 {
		o.Seed = 20201027 // IMC 2020, day one
	}
	if o.UniverseSize == 0 {
		o.UniverseSize = 1 << 17
	}
	return o
}

// Deployment is the full simulated testbed: all four advertiser interfaces
// the paper studies.
type Deployment struct {
	FacebookRestricted *Interface
	Facebook           *Interface
	Google             *Interface
	LinkedIn           *Interface
}

// Interfaces returns the four interfaces in the paper's presentation order:
// FB-restricted, Facebook, Google, LinkedIn.
func (d *Deployment) Interfaces() []*Interface {
	return []*Interface{d.FacebookRestricted, d.Facebook, d.Google, d.LinkedIn}
}

// ErrUnknownInterface marks a lookup of an interface name the deployment
// does not serve. Match with errors.Is.
var ErrUnknownInterface = errors.New("platform: unknown interface")

// ByName returns the interface with the given name, or an error wrapping
// ErrUnknownInterface.
func (d *Deployment) ByName(name string) (*Interface, error) {
	for _, p := range d.Interfaces() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownInterface, name)
}

// activitySigma returns the platform's activity spread, honouring the
// uniform-activity ablation knob.
func activitySigma(opts DeployOptions, v float64) float64 {
	if opts.UniformActivity {
		return 0
	}
	return v
}

// demoOptionCount bounds demographic ref IDs for rule validation.
func demoOptionCount(k targeting.Kind, attrs, topics int) int {
	return demoOptionCountP(k, attrs, topics, 0)
}

// demoOptionCountP is demoOptionCount with a placement bound.
func demoOptionCountP(k targeting.Kind, attrs, topics, placements int) int {
	switch k {
	case targeting.KindAttribute:
		return attrs
	case targeting.KindTopic:
		return topics
	case targeting.KindPlacement:
		return placements
	case targeting.KindGender:
		return population.NumGenders
	case targeting.KindAge:
		return population.NumAgeRanges
	case targeting.KindCustomAudience:
		// Custom audience ids are dynamic; the interface bounds-checks them
		// at resolution time.
		return int(^uint(0) >> 1)
	case targeting.KindLocation:
		return population.NumRegions
	default:
		return 0
	}
}

// NewDeployment builds the four simulated interfaces. Facebook's full and
// restricted interfaces share one universe (they are two doors into the same
// user base); Google and LinkedIn have their own universes with the
// demographic compositions their catalogs' systematic skews suggest.
func NewDeployment(opts DeployOptions) (*Deployment, error) {
	return NewDeploymentFrom(opts, nil)
}

// NewDeploymentFrom is NewDeployment taking prebuilt state: when pre is
// non-nil, each universe is reconstructed from its persisted per-user arrays
// (population.FromData — no hash draws) and each interface is assembled over
// its snapshot option views (Config.Views — no materialization). Every
// derived structure — catalogs, rules, rounders, objective tables, scale
// factors, population.Config literals — still comes from this constructor,
// so a snapshot carries only raw draws and a loaded deployment cannot drift
// from what NewDeployment(opts) would wire. pre must cover all three
// universes and all four interfaces; the snapshot loader guarantees it.
func NewDeploymentFrom(opts DeployOptions, pre *Prebuilt) (*Deployment, error) {
	opts = opts.withDefaults()
	if opts.UniverseSize < 1000 {
		return nil, errors.New("platform: UniverseSize must be at least 1000")
	}
	factors := catalog.Factors()
	if opts.NoLatentFactors {
		factors = nil
	}
	pickRounder := func(r estimate.Rounder) estimate.Rounder {
		if opts.ExactEstimates {
			return estimate.Exact{}
		}
		return r
	}
	newUni := func(cfg population.Config) (*population.Universe, error) {
		if pre != nil {
			owner := ""
			switch cfg.Seed {
			case opts.Seed:
				owner = catalog.PlatformFacebook
			case opts.Seed + 1:
				owner = catalog.PlatformGoogle
			case opts.Seed + 2:
				owner = catalog.PlatformLinkedIn
			}
			data, ok := pre.Universes[owner]
			if !ok {
				return nil, fmt.Errorf("population: no prebuilt universe for %q", owner)
			}
			return population.FromData(cfg, opts.ShardSpans, data)
		}
		if opts.ShardSpans != nil {
			return population.NewShard(cfg, opts.ShardSpans)
		}
		return population.New(cfg)
	}
	viewsFor := func(name string) (*OptionViews, error) {
		if pre == nil {
			return nil, nil
		}
		v, ok := pre.Views[name]
		if !ok {
			return nil, fmt.Errorf("platform: no prebuilt views for %q", name)
		}
		return v, nil
	}
	fbUni, err := newUni(population.Config{
		Seed:        opts.Seed,
		Size:        opts.UniverseSize,
		ScaleFactor: FacebookTotalUsers / (float64(opts.UniverseSize) * DefaultUSShare),
		USShare:     DefaultUSShare,
		MaleShare:   0.46,
		AgeShare:    [population.NumAgeRanges]float64{0.16, 0.27, 0.33, 0.24},
		Factors:     factors,
		// Heavy-tailed activity: Facebook interest audiences overlap
		// substantially (Table 1: ~22% median pairwise overlap).
		ActivitySigma: activitySigma(opts, 1.7),
	})
	if err != nil {
		return nil, fmt.Errorf("facebook universe: %w", err)
	}
	googleUni, err := newUni(population.Config{
		Seed:          opts.Seed + 1,
		Size:          opts.UniverseSize,
		ScaleFactor:   GoogleTotalUsers / float64(opts.UniverseSize),
		MaleShare:     0.49,
		AgeShare:      [population.NumAgeRanges]float64{0.15, 0.25, 0.34, 0.26},
		Factors:       factors,
		ActivitySigma: activitySigma(opts, 1.1),
	})
	if err != nil {
		return nil, fmt.Errorf("google universe: %w", err)
	}
	linkedInUni, err := newUni(population.Config{
		Seed:        opts.Seed + 2,
		Size:        opts.UniverseSize,
		ScaleFactor: LinkedInTotalUsers / (float64(opts.UniverseSize) * DefaultUSShare),
		USShare:     DefaultUSShare,
		MaleShare:   0.56,
		AgeShare:    [population.NumAgeRanges]float64{0.20, 0.35, 0.33, 0.12},
		Factors:     factors,
		// LinkedIn profiles carry few overlapping detailed attributes
		// (Table 1: ~0% median pairwise overlap).
		ActivitySigma: activitySigma(opts, 0.5),
	})
	if err != nil {
		return nil, fmt.Errorf("linkedin universe: %w", err)
	}

	fbrCat, err := catalog.FacebookRestricted(opts.Seed)
	if err != nil {
		return nil, err
	}
	fbCat, err := catalog.Facebook(opts.Seed)
	if err != nil {
		return nil, err
	}
	gCat, err := catalog.Google(opts.Seed)
	if err != nil {
		return nil, err
	}
	liCat, err := catalog.LinkedIn(opts.Seed)
	if err != nil {
		return nil, err
	}

	d := &Deployment{}

	// Facebook full interface: attributes + separate demographic dimensions,
	// exclusion allowed, boolean and-of-ors within the attribute feature.
	fbRules := targeting.Rules{
		Interface: catalog.PlatformFacebook,
		Kinds: []targeting.Kind{
			targeting.KindAttribute, targeting.KindGender, targeting.KindAge,
			targeting.KindCustomAudience, targeting.KindLocation,
		},
		AllowExclude:      true,
		AllowDemographics: true,
		AndWithinFeature:  true,
		OptionCount: func(k targeting.Kind) int {
			return demoOptionCount(k, len(fbCat.Attributes), 0)
		},
	}
	fbViews, err := viewsFor(catalog.PlatformFacebook)
	if err != nil {
		return nil, err
	}
	d.Facebook, err = New(Config{
		Name:             catalog.PlatformFacebook,
		Universe:         fbUni,
		Catalog:          fbCat,
		AdvertiserRules:  fbRules,
		Rounder:          pickRounder(estimate.Facebook()),
		Objectives:       map[Objective]float64{ObjectiveReach: 1, ObjectiveTraffic: 0.72},
		DefaultObjective: ObjectiveReach,
		CSetOnly:         opts.Compressed,
		Views:            fbViews,
		Metrics:          opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	// Facebook restricted interface: no demographics, no exclusion (paper
	// §2.2); the auditor measures demographics through the normal interface,
	// expressed here as measurement rules that re-allow them.
	fbrAdvRules := targeting.Rules{
		Interface: catalog.PlatformFacebookRestricted,
		Kinds: []targeting.Kind{
			targeting.KindAttribute, targeting.KindCustomAudience,
			targeting.KindLocation,
		},
		AndWithinFeature: true,
		OptionCount: func(k targeting.Kind) int {
			return demoOptionCount(k, len(fbrCat.Attributes), 0)
		},
	}
	fbrMeasRules := fbrAdvRules
	fbrMeasRules.Kinds = []targeting.Kind{
		targeting.KindAttribute, targeting.KindGender, targeting.KindAge,
		targeting.KindCustomAudience, targeting.KindLocation,
	}
	fbrMeasRules.AllowDemographics = true
	fbrViews, err := viewsFor(catalog.PlatformFacebookRestricted)
	if err != nil {
		return nil, err
	}
	d.FacebookRestricted, err = New(Config{
		Name:               catalog.PlatformFacebookRestricted,
		Universe:           fbUni,
		Catalog:            fbrCat,
		AdvertiserRules:    fbrAdvRules,
		MeasurementRules:   &fbrMeasRules,
		SpecialAdAudiences: true,
		Rounder:            pickRounder(estimate.Facebook()),
		Objectives:         map[Objective]float64{ObjectiveReach: 1, ObjectiveTraffic: 0.72},
		DefaultObjective:   ObjectiveReach,
		CSetOnly:           opts.Compressed,
		Views:              fbrViews,
		Metrics:            opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	// Google: attributes + topics + demographics; options within a feature
	// combine only via OR where size statistics are shown, so AND spans
	// features; size statistic counts impressions, subject to frequency
	// capping.
	gRules := targeting.Rules{
		Interface: catalog.PlatformGoogle,
		Kinds: []targeting.Kind{
			targeting.KindAttribute, targeting.KindTopic,
			targeting.KindPlacement, targeting.KindGender, targeting.KindAge,
			targeting.KindCustomAudience, targeting.KindLocation,
		},
		AllowExclude:      true,
		AllowDemographics: true,
		AndWithinFeature:  false,
		OptionCount: func(k targeting.Kind) int {
			return demoOptionCountP(k, len(gCat.Attributes), len(gCat.Topics), len(gCat.Placements))
		},
	}
	gViews, err := viewsFor(catalog.PlatformGoogle)
	if err != nil {
		return nil, err
	}
	d.Google, err = New(Config{
		Name:                catalog.PlatformGoogle,
		Universe:            googleUni,
		Catalog:             gCat,
		AdvertiserRules:     gRules,
		Rounder:             pickRounder(estimate.Google()),
		Objectives:          map[Objective]float64{ObjectiveBrandAwarenessReach: 1, ObjectiveTraffic: 0.65},
		DefaultObjective:    ObjectiveBrandAwarenessReach,
		ImpressionEstimates: true,
		CSetOnly:            opts.Compressed,
		Views:               gViews,
		Metrics:             opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	// LinkedIn: demographics are ordinary detailed-targeting attributes
	// combined via AND of ORs (paper §3 fn. 4); modelled as demographic
	// kinds with DemographicsAsAttributes semantics.
	liRules := targeting.Rules{
		Interface: catalog.PlatformLinkedIn,
		Kinds: []targeting.Kind{
			targeting.KindAttribute, targeting.KindGender, targeting.KindAge,
			targeting.KindCustomAudience, targeting.KindLocation,
		},
		AllowExclude:             true,
		AllowDemographics:        true,
		DemographicsAsAttributes: true,
		AndWithinFeature:         true,
		OptionCount: func(k targeting.Kind) int {
			return demoOptionCount(k, len(liCat.Attributes), 0)
		},
	}
	liViews, err := viewsFor(catalog.PlatformLinkedIn)
	if err != nil {
		return nil, err
	}
	d.LinkedIn, err = New(Config{
		Name:             catalog.PlatformLinkedIn,
		Universe:         linkedInUni,
		Catalog:          liCat,
		AdvertiserRules:  liRules,
		Rounder:          pickRounder(estimate.LinkedIn()),
		Objectives:       map[Objective]float64{ObjectiveBrandAwareness: 1, ObjectiveTraffic: 0.70},
		DefaultObjective: ObjectiveBrandAwareness,
		CSetOnly:         opts.Compressed,
		Views:            liViews,
		Metrics:          opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}
