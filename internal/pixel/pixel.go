// Package pixel implements activity-based targeting (paper §2.1): an
// advertiser places a tracking pixel from the ad platform on their website,
// the platform logs visitors' actions, and the advertiser targets audiences
// like "everyone who added to cart in the last 30 days" ("website custom
// audiences" on Facebook, "remarketing" on Google, "website retargeting" on
// LinkedIn). The paper notes these remain available even on Facebook's
// restricted interface (§2.2) — another composition surface.
//
// A simulated Site attracts visitors according to an interest model (the
// same generative family as catalog attributes: demographic loadings plus a
// latent factor), and visitors funnel through deepening event stages.
// Audiences are deterministic in (universe, site, event, window).
package pixel

import (
	"errors"
	"fmt"

	"repro/internal/audience"
	"repro/internal/population"
	"repro/internal/xrand"
)

// Event is a pixel event stage; deeper stages are strict subsets of
// shallower ones (the classic funnel).
type Event int

// Funnel stages.
const (
	// EventPageView fires for every visitor.
	EventPageView Event = iota
	// EventAddToCart fires for a fraction of viewers.
	EventAddToCart
	// EventPurchase fires for a fraction of cart adders.
	EventPurchase
	numEvents
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventPageView:
		return "page-view"
	case EventAddToCart:
		return "add-to-cart"
	case EventPurchase:
		return "purchase"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Funnel pass-through rates per stage beyond page view.
var funnelRates = map[Event]float64{
	EventAddToCart: 0.30,
	EventPurchase:  0.35, // of cart adders
}

// Site is an advertiser website carrying the platform's tracking pixel.
type Site struct {
	// Domain names the site (unique per tracker).
	Domain string
	// Visitors models who visits: the same generative family as catalog
	// attributes (base rate, demographic loadings, latent factor).
	Visitors population.AttrModel
}

// MaxWindowDays is the longest retention window the platforms offer.
const MaxWindowDays = 180

// Tracker is one platform's pixel-event store over its universe.
type Tracker struct {
	uni   *population.Universe
	sites []Site

	// cache[siteID][event] holds materialized audiences for the full
	// window; shorter windows subsample deterministically.
	cache map[int]map[Event]*audience.Set
}

// Errors.
var (
	ErrUnknownSite  = errors.New("pixel: unknown site")
	ErrUnknownEvent = errors.New("pixel: unknown event")
	ErrBadWindow    = errors.New("pixel: window must be in [1, 180] days")
)

// NewTracker returns an empty tracker over the universe.
func NewTracker(uni *population.Universe) *Tracker {
	return &Tracker{uni: uni, cache: make(map[int]map[Event]*audience.Set)}
}

// AddSite registers a site and returns its id.
func (t *Tracker) AddSite(s Site) (int, error) {
	if s.Domain == "" {
		return 0, errors.New("pixel: empty site domain")
	}
	for _, existing := range t.sites {
		if existing.Domain == s.Domain {
			return 0, fmt.Errorf("pixel: site %q already registered", s.Domain)
		}
	}
	t.sites = append(t.sites, s)
	return len(t.sites) - 1, nil
}

// Site returns site metadata by id.
func (t *Tracker) Site(id int) (Site, error) {
	if id < 0 || id >= len(t.sites) {
		return Site{}, fmt.Errorf("%w: %d", ErrUnknownSite, id)
	}
	return t.sites[id], nil
}

// fullAudience returns (and caches) the full-window audience of one event.
func (t *Tracker) fullAudience(siteID int, e Event) (*audience.Set, error) {
	if siteID < 0 || siteID >= len(t.sites) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSite, siteID)
	}
	if e < 0 || e >= numEvents {
		return nil, fmt.Errorf("%w: %d", ErrUnknownEvent, e)
	}
	byEvent, ok := t.cache[siteID]
	if !ok {
		byEvent = make(map[Event]*audience.Set)
		t.cache[siteID] = byEvent
	}
	if set, ok := byEvent[e]; ok {
		return set, nil
	}
	site := t.sites[siteID]
	var set *audience.Set
	if e == EventPageView {
		set = t.uni.Materialize(site.Visitors)
	} else {
		parent, err := t.fullAudience(siteID, e-1)
		if err != nil {
			return nil, err
		}
		rate := funnelRates[e]
		salt := xrand.HashString(site.Domain) ^ uint64(e)
		set = audience.New(t.uni.Size())
		parent.ForEach(func(i int) {
			if xrand.Bernoulli(rate, salt, uint64(i)) {
				set.Add(i)
			}
		})
	}
	byEvent[e] = set
	return set, nil
}

// Audience returns the users who performed the event on the site within the
// last windowDays days. Shorter windows deterministically subsample the
// full-window audience in proportion to the window (a memoryless visit
// process).
func (t *Tracker) Audience(siteID int, e Event, windowDays int) (*audience.Set, error) {
	if windowDays < 1 || windowDays > MaxWindowDays {
		return nil, fmt.Errorf("%w: %d", ErrBadWindow, windowDays)
	}
	full, err := t.fullAudience(siteID, e)
	if err != nil {
		return nil, err
	}
	if windowDays == MaxWindowDays {
		return full.Clone(), nil
	}
	keep := float64(windowDays) / MaxWindowDays
	salt := xrand.HashString(t.sites[siteID].Domain) ^ (uint64(e) << 8) ^ 0x57
	out := audience.New(t.uni.Size())
	full.ForEach(func(i int) {
		if xrand.Bernoulli(keep, salt, uint64(i)) {
			out.Add(i)
		}
	})
	return out, nil
}
