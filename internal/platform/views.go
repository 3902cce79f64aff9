package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/audience"
	"repro/internal/catalog"
	"repro/internal/population"
	"repro/internal/targeting"
)

// OptionViews holds the compressed audience of every catalog option of one
// interface, indexed like the catalog slices. A snapshot loader
// (internal/snapshot) decodes them over an mmap'd file — each CSet's
// containers alias the mapped pages — and hands them to Config.Views; the
// interface then answers every query through compiled plans that read the
// views as compressed-only operands, without ever materializing an option
// set. Boot is O(directory) and cold containers fault in from the page
// cache on first touch.
type OptionViews struct {
	Attributes []*audience.CSet
	Topics     []*audience.CSet
	Placements []*audience.CSet
}

// validate checks the views line up with the catalog and universe the
// interface is being assembled with.
func (v *OptionViews) validate(cat *catalog.Catalog, size int) error {
	check := func(kind string, views []*audience.CSet, want int) error {
		if len(views) != want {
			return fmt.Errorf("platform: %d %s views for %d catalog options", len(views), kind, want)
		}
		for i, view := range views {
			if view == nil {
				return fmt.Errorf("platform: nil %s view %d", kind, i)
			}
			if view.Len() != size {
				return fmt.Errorf("platform: %s view %d spans %d users, universe holds %d", kind, i, view.Len(), size)
			}
		}
		return nil
	}
	if err := check("attribute", v.Attributes, len(cat.Attributes)); err != nil {
		return err
	}
	if err := check("topic", v.Topics, len(cat.Topics)); err != nil {
		return err
	}
	return check("placement", v.Placements, len(cat.Placements))
}

// Prebuilt carries externally persisted deployment state — raw per-user
// universe arrays and catalog option views, both typically aliasing an
// mmap'd snapshot. NewDeploymentFrom consumes it: universes are
// reconstructed with population.FromData (no hash draws) and interfaces are
// assembled view-backed (no materialization), so the deployment is
// ready-to-serve in O(catalog directory) instead of O(universe × catalog).
type Prebuilt struct {
	// Universes maps the universe-owning platform name —
	// catalog.PlatformFacebook (shared with the restricted interface),
	// PlatformGoogle, PlatformLinkedIn — to its per-user arrays.
	Universes map[string]population.UniverseData
	// Views maps each interface name to its catalog option views.
	Views map[string]*OptionViews
}

// Normalized returns the options with defaults applied — the canonical form
// the snapshot layer hashes into its config binding and compares at load
// time, so `-universe 0` and `-universe 131072` bind identically.
func (o DeployOptions) Normalized() DeployOptions { return o.withDefaults() }

// CatalogHash fingerprints everything that determines the deployment's
// catalog audiences: for every interface, each option's name, draw ID, and
// full generative model parameters. Option IDs alone are hashes of
// platform+name and thus seed-independent; including the model parameters
// (which catalogs draw from the seed) is what makes deployments built from
// different seeds hash differently. Two deployments with equal catalog
// hashes over equal universes answer every catalog query identically, which
// is the invariant the snapshot loader and the cluster coordinator's
// mixed-ring preflight both enforce.
func CatalogHash(d *Deployment) string {
	h := sha256.New()
	for _, p := range d.Interfaces() {
		fmt.Fprintf(h, "iface %s\n", p.Name())
		hashOptions(h, "attr", p.Catalog().Attributes)
		hashOptions(h, "topic", p.Catalog().Topics)
		hashOptions(h, "placement", p.Catalog().Placements)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashOptions writes one catalog dimension into the hash, model parameters
// included.
func hashOptions(w io.Writer, kind string, opts []catalog.Attribute) {
	fmt.Fprintf(w, "%s %d\n", kind, len(opts))
	for i := range opts {
		o := &opts[i]
		m := o.Model
		fmt.Fprintf(w, "%q %q %v %d %v %v %v %d %v\n",
			o.Name, o.Category, o.Pinned,
			m.ID, m.BaseLogit, m.GenderLoad, m.AgeLoad, m.Factor, m.FactorBoost)
	}
}

// OptionCSet returns the compressed audience of one catalog option: the
// retained set on a compressed catalog, a transient compression of the
// dense set otherwise. Only catalog kinds (attribute, topic, placement)
// resolve; the snapshot writer stores each one's blob to serialize a
// deployment's full catalog.
func (p *Interface) OptionCSet(r targeting.Ref) (*audience.CSet, error) {
	if p.dim(r.Kind) == nil {
		return nil, fmt.Errorf("%w: %s is not a catalog option", targeting.ErrKindForbidden, r)
	}
	op, err := p.operandFor(r)
	if err != nil || op.C != nil {
		return op.C, err
	}
	return audience.FromSet(op.Set), nil
}
