package adapi

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// The reference codecs: the encoding/json implementations of the three
// dialects and the batch envelopes that the reflection-free codecs
// replaced. They define the wire. The tests hold the codecs to them: the
// same bytes out of every encoder, and no decoded value the reference would
// decode differently.

// refCodec is the reference form of Codec.
type refCodec interface {
	EncodeRequest(req platform.EstimateRequest) ([]byte, error)
	DecodeRequest(body []byte) (platform.EstimateRequest, error)
	EncodeResponse(size int64) ([]byte, error)
	DecodeResponse(body []byte) (int64, error)
}

// refCodecFor returns the reference codec for a platform interface name.
func refCodecFor(name string) refCodec {
	switch name {
	case catalog.PlatformFacebook, catalog.PlatformFacebookRestricted:
		return refFacebook{}
	case catalog.PlatformGoogle:
		return refGoogle{}
	case catalog.PlatformLinkedIn:
		return refLinkedIn{}
	}
	panic("no reference codec for " + name)
}

// refDemoLists refuses a second gender or age clause: the Facebook and
// Google bodies hold one list of each, and a list is an OR. (The reference
// once merged every such clause into the one list, so an AND of two
// genders went out as their OR.)
func refDemoLists(byKind map[targeting.Kind][]targeting.Clause, dialect string) error {
	for _, k := range []targeting.Kind{targeting.KindGender, targeting.KindAge} {
		if len(byKind[k]) > 1 {
			return fmt.Errorf("%w: %s supports one %s clause", targeting.ErrTooManyClauses, dialect, k)
		}
	}
	return nil
}

// splitClauses groups a spec side's clauses by feature kind, preserving
// clause structure. The wire dialects physically cannot express empty or
// kind-mixed clauses (true of the real platforms' formats), so those are
// encoder errors.
func splitClauses(clauses []targeting.Clause) (map[targeting.Kind][]targeting.Clause, error) {
	out := make(map[targeting.Kind][]targeting.Clause)
	for _, cl := range clauses {
		if len(cl) == 0 {
			return nil, targeting.ErrEmptyClause
		}
		k := cl[0].Kind
		for _, r := range cl {
			if r.Kind != k {
				return nil, targeting.ErrMixedClause
			}
		}
		out[k] = append(out[k], cl)
	}
	return out, nil
}

// clauseIDs extracts the option IDs of a single-kind clause.
func clauseIDs(cl targeting.Clause) []int {
	ids := make([]int, len(cl))
	for i, r := range cl {
		ids[i] = r.ID
	}
	return ids
}

// clauseOf builds a clause of one kind from option IDs.
func clauseOf(kind targeting.Kind, ids []int) targeting.Clause {
	cl := make(targeting.Clause, len(ids))
	for i, id := range ids {
		cl[i] = targeting.Ref{Kind: kind, ID: id}
	}
	return cl
}

// refFacebook is the reference Facebook codec.
type refFacebook struct{}

// fbInterest is one option inside a flexible_spec group.
type fbInterest struct {
	ID int `json:"id"`
}

// fbFlexGroup is one OR-group.
type fbFlexGroup struct {
	Interests []fbInterest `json:"interests,omitempty"`
}

// fbAgeRange is a min/max age bound; Max 0 encodes "no upper bound".
type fbAgeRange struct {
	Min int `json:"min"`
	Max int `json:"max,omitempty"`
}

// fbCustomAudience references a previously created custom audience.
type fbCustomAudience struct {
	ID int `json:"id"`
}

// fbGeoLocations is the location-targeting block.
type fbGeoLocations struct {
	Countries []string `json:"countries"`
}

// fbTargetingSpec is the targeting_spec body.
type fbTargetingSpec struct {
	FlexibleSpec    []fbFlexGroup        `json:"flexible_spec,omitempty"`
	Exclusions      *fbFlexGroup         `json:"exclusions,omitempty"`
	Genders         []int                `json:"genders,omitempty"`
	AgeRanges       []fbAgeRange         `json:"age_ranges,omitempty"`
	CustomAudiences [][]fbCustomAudience `json:"custom_audiences,omitempty"`
	GeoLocations    *fbGeoLocations      `json:"geo_locations,omitempty"`
}

// fbRequest is the estimate request envelope.
type fbRequest struct {
	TargetingSpec    fbTargetingSpec `json:"targeting_spec"`
	OptimizationGoal string          `json:"optimization_goal,omitempty"`
}

// fbResponse is the estimate response envelope.
type fbResponse struct {
	Data []struct {
		EstimateMAU int64 `json:"estimate_mau"`
	} `json:"data"`
}

// EncodeRequest implements refCodec.
func (refFacebook) EncodeRequest(req platform.EstimateRequest) ([]byte, error) {
	byKind, err := splitClauses(req.Spec.Include)
	if err != nil {
		return nil, err
	}
	if len(byKind[targeting.KindTopic]) > 0 {
		return nil, fmt.Errorf("%w: facebook has no topic feature", targeting.ErrKindForbidden)
	}
	if err := refDemoLists(byKind, "facebook"); err != nil {
		return nil, err
	}
	var ts fbTargetingSpec
	for _, cl := range byKind[targeting.KindCustomAudience] {
		group := make([]fbCustomAudience, 0, len(cl))
		for _, id := range clauseIDs(cl) {
			group = append(group, fbCustomAudience{ID: id})
		}
		ts.CustomAudiences = append(ts.CustomAudiences, group)
	}
	for _, cl := range byKind[targeting.KindAttribute] {
		group := fbFlexGroup{}
		for _, id := range clauseIDs(cl) {
			group.Interests = append(group.Interests, fbInterest{ID: id})
		}
		ts.FlexibleSpec = append(ts.FlexibleSpec, group)
	}
	// Facebook genders are 1-based (1=male, 2=female).
	for _, cl := range byKind[targeting.KindGender] {
		for _, id := range clauseIDs(cl) {
			ts.Genders = append(ts.Genders, id+1)
		}
	}
	for _, cl := range byKind[targeting.KindAge] {
		for _, id := range clauseIDs(cl) {
			if id < 0 || id >= len(ageBounds) {
				return nil, fmt.Errorf("%w: age range %d", targeting.ErrInvalidDemoValue, id)
			}
			b := ageBounds[id]
			ts.AgeRanges = append(ts.AgeRanges, fbAgeRange{Min: b[0], Max: b[1]})
		}
	}
	for _, cl := range byKind[targeting.KindLocation] {
		geo := &fbGeoLocations{}
		for _, id := range clauseIDs(cl) {
			code, err := regionCode(id)
			if err != nil {
				return nil, err
			}
			geo.Countries = append(geo.Countries, code)
		}
		if ts.GeoLocations != nil {
			return nil, fmt.Errorf("%w: facebook supports one location block", targeting.ErrTooManyClauses)
		}
		ts.GeoLocations = geo
	}
	// All exclusion clauses merge into one OR-group: ¬(A∨B) ∧ ¬(C) ≡
	// ¬(A∨B∨C). Only attribute exclusions are expressible.
	if len(req.Spec.Exclude) > 0 {
		exByKind, err := splitClauses(req.Spec.Exclude)
		if err != nil {
			return nil, err
		}
		for k := range exByKind {
			if k != targeting.KindAttribute {
				return nil, fmt.Errorf("%w: facebook exclusions accept attributes only", targeting.ErrKindForbidden)
			}
		}
		ex := &fbFlexGroup{}
		for _, cl := range exByKind[targeting.KindAttribute] {
			for _, id := range clauseIDs(cl) {
				ex.Interests = append(ex.Interests, fbInterest{ID: id})
			}
		}
		ts.Exclusions = ex
	}
	goal := goalNames[req.Objective]
	if req.Objective == "" {
		goal = ""
	} else if goal == "" {
		return nil, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
	}
	return json.Marshal(fbRequest{TargetingSpec: ts, OptimizationGoal: goal})
}

// DecodeRequest implements refCodec.
func (refFacebook) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	var req fbRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed facebook request: %w", err)
	}
	var spec targeting.Spec
	for _, g := range req.TargetingSpec.FlexibleSpec {
		var cl targeting.Clause
		for _, it := range g.Interests {
			cl = append(cl, targeting.Ref{Kind: targeting.KindAttribute, ID: it.ID})
		}
		spec.Include = append(spec.Include, cl)
	}
	if gs := req.TargetingSpec.Genders; len(gs) > 0 {
		var cl targeting.Clause
		for _, g := range gs {
			cl = append(cl, targeting.Ref{Kind: targeting.KindGender, ID: g - 1})
		}
		spec.Include = append(spec.Include, cl)
	}
	if ars := req.TargetingSpec.AgeRanges; len(ars) > 0 {
		var cl targeting.Clause
		for _, ar := range ars {
			id, err := ageRangeFromBounds(ar.Min, ar.Max)
			if err != nil {
				return platform.EstimateRequest{}, err
			}
			cl = append(cl, targeting.Ref{Kind: targeting.KindAge, ID: id})
		}
		spec.Include = append(spec.Include, cl)
	}
	if geo := req.TargetingSpec.GeoLocations; geo != nil {
		var cl targeting.Clause
		for _, code := range geo.Countries {
			id, err := regionFromCode([]byte(code))
			if err != nil {
				return platform.EstimateRequest{}, err
			}
			cl = append(cl, targeting.Ref{Kind: targeting.KindLocation, ID: id})
		}
		spec.Include = append(spec.Include, cl)
	}
	for _, group := range req.TargetingSpec.CustomAudiences {
		var cl targeting.Clause
		for _, ca := range group {
			cl = append(cl, targeting.Ref{Kind: targeting.KindCustomAudience, ID: ca.ID})
		}
		spec.Include = append(spec.Include, cl)
	}
	if ex := req.TargetingSpec.Exclusions; ex != nil {
		var cl targeting.Clause
		for _, it := range ex.Interests {
			cl = append(cl, targeting.Ref{Kind: targeting.KindAttribute, ID: it.ID})
		}
		spec.Exclude = append(spec.Exclude, cl)
	}
	out := platform.EstimateRequest{Spec: spec}
	switch req.OptimizationGoal {
	case "":
	case "REACH":
		out.Objective = platform.ObjectiveReach
	case "LINK_CLICKS":
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.OptimizationGoal)
	}
	return out, nil
}

// EncodeResponse implements refCodec.
func (refFacebook) EncodeResponse(size int64) ([]byte, error) {
	var resp fbResponse
	resp.Data = append(resp.Data, struct {
		EstimateMAU int64 `json:"estimate_mau"`
	}{EstimateMAU: size})
	return json.Marshal(resp)
}

// DecodeResponse implements refCodec.
func (refFacebook) DecodeResponse(body []byte) (int64, error) {
	var resp fbResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("adapi: malformed facebook response: %w", err)
	}
	if len(resp.Data) != 1 {
		return 0, fmt.Errorf("adapi: facebook response has %d data entries", len(resp.Data))
	}
	return resp.Data[0].EstimateMAU, nil
}

// refGoogle is the reference Google codec.
type refGoogle struct{}

type gExclude struct {
	Attrs  [][]int `json:"3,omitempty"`
	Topics [][]int `json:"4,omitempty"`
}

type gTargeting struct {
	Attrs      [][]int   `json:"3,omitempty"`
	Topics     [][]int   `json:"4,omitempty"`
	Genders    []int     `json:"6,omitempty"`
	Ages       [][2]int  `json:"7,omitempty"`
	Exclude    *gExclude `json:"9,omitempty"`
	Audiences  [][]int   `json:"11,omitempty"` // customer-match lists
	Locations  [][]int   `json:"8,omitempty"`  // geo criterion groups
	Placements [][]int   `json:"12,omitempty"` // managed placements
}

type gCampaign struct {
	Targeting gTargeting `json:"2"`
	FreqCap   int        `json:"5,omitempty"`
	Objective int        `json:"10,omitempty"`
}

type gRequest struct {
	Campaign gCampaign `json:"1"`
}

type gResult struct {
	Estimate string `json:"2"`
}

type gResponse struct {
	Result gResult `json:"1"`
}

// EncodeRequest implements refCodec.
func (refGoogle) EncodeRequest(req platform.EstimateRequest) ([]byte, error) {
	byKind, err := splitClauses(req.Spec.Include)
	if err != nil {
		return nil, err
	}
	if err := refDemoLists(byKind, "google"); err != nil {
		return nil, err
	}
	var t gTargeting
	for _, cl := range byKind[targeting.KindAttribute] {
		t.Attrs = append(t.Attrs, clauseIDs(cl))
	}
	for _, cl := range byKind[targeting.KindTopic] {
		t.Topics = append(t.Topics, clauseIDs(cl))
	}
	for _, cl := range byKind[targeting.KindCustomAudience] {
		t.Audiences = append(t.Audiences, clauseIDs(cl))
	}
	for _, cl := range byKind[targeting.KindLocation] {
		t.Locations = append(t.Locations, clauseIDs(cl))
	}
	for _, cl := range byKind[targeting.KindPlacement] {
		t.Placements = append(t.Placements, clauseIDs(cl))
	}
	for _, cl := range byKind[targeting.KindGender] {
		for _, id := range clauseIDs(cl) {
			t.Genders = append(t.Genders, id+1)
		}
	}
	for _, cl := range byKind[targeting.KindAge] {
		for _, id := range clauseIDs(cl) {
			if id < 0 || id >= len(ageBounds) {
				return nil, fmt.Errorf("%w: age range %d", targeting.ErrInvalidDemoValue, id)
			}
			t.Ages = append(t.Ages, [2]int{ageBounds[id][0], ageBounds[id][1]})
		}
	}
	if len(req.Spec.Exclude) > 0 {
		exByKind, err := splitClauses(req.Spec.Exclude)
		if err != nil {
			return nil, err
		}
		ex := &gExclude{}
		for k, cls := range exByKind {
			switch k {
			case targeting.KindAttribute:
				for _, cl := range cls {
					ex.Attrs = append(ex.Attrs, clauseIDs(cl))
				}
			case targeting.KindTopic:
				for _, cl := range cls {
					ex.Topics = append(ex.Topics, clauseIDs(cl))
				}
			default:
				return nil, fmt.Errorf("%w: google exclusions accept attributes and topics only", targeting.ErrKindForbidden)
			}
		}
		t.Exclude = ex
	}
	c := gCampaign{Targeting: t, FreqCap: req.FrequencyCapPerMonth}
	switch req.Objective {
	case "":
	case platform.ObjectiveBrandAwarenessReach:
		c.Objective = gObjectiveDisplayReach
	case platform.ObjectiveTraffic:
		c.Objective = gObjectiveTraffic
	default:
		return nil, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
	}
	return json.Marshal(gRequest{Campaign: c})
}

// DecodeRequest implements refCodec.
func (refGoogle) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	var req gRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed google request: %w", err)
	}
	t := req.Campaign.Targeting
	var spec targeting.Spec
	for _, ids := range t.Attrs {
		spec.Include = append(spec.Include, clauseOf(targeting.KindAttribute, ids))
	}
	for _, ids := range t.Topics {
		spec.Include = append(spec.Include, clauseOf(targeting.KindTopic, ids))
	}
	for _, ids := range t.Audiences {
		spec.Include = append(spec.Include, clauseOf(targeting.KindCustomAudience, ids))
	}
	for _, ids := range t.Locations {
		spec.Include = append(spec.Include, clauseOf(targeting.KindLocation, ids))
	}
	for _, ids := range t.Placements {
		spec.Include = append(spec.Include, clauseOf(targeting.KindPlacement, ids))
	}
	if len(t.Genders) > 0 {
		var cl targeting.Clause
		for _, g := range t.Genders {
			cl = append(cl, targeting.Ref{Kind: targeting.KindGender, ID: g - 1})
		}
		spec.Include = append(spec.Include, cl)
	}
	if len(t.Ages) > 0 {
		var cl targeting.Clause
		for _, a := range t.Ages {
			id, err := ageRangeFromBounds(a[0], a[1])
			if err != nil {
				return platform.EstimateRequest{}, err
			}
			cl = append(cl, targeting.Ref{Kind: targeting.KindAge, ID: id})
		}
		spec.Include = append(spec.Include, cl)
	}
	if ex := t.Exclude; ex != nil {
		for _, ids := range ex.Attrs {
			spec.Exclude = append(spec.Exclude, clauseOf(targeting.KindAttribute, ids))
		}
		for _, ids := range ex.Topics {
			spec.Exclude = append(spec.Exclude, clauseOf(targeting.KindTopic, ids))
		}
	}
	out := platform.EstimateRequest{Spec: spec, FrequencyCapPerMonth: req.Campaign.FreqCap}
	switch req.Campaign.Objective {
	case 0:
	case gObjectiveDisplayReach:
		out.Objective = platform.ObjectiveBrandAwarenessReach
	case gObjectiveTraffic:
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: enum %d", platform.ErrUnknownObjective, req.Campaign.Objective)
	}
	return out, nil
}

// EncodeResponse implements refCodec.
func (refGoogle) EncodeResponse(size int64) ([]byte, error) {
	return json.Marshal(gResponse{Result: gResult{Estimate: strconv.FormatInt(size, 10)}})
}

// DecodeResponse implements refCodec.
func (refGoogle) DecodeResponse(body []byte) (int64, error) {
	var resp gResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("adapi: malformed google response: %w", err)
	}
	v, err := strconv.ParseInt(resp.Result.Estimate, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("adapi: google estimate %q is not a number: %w", resp.Result.Estimate, err)
	}
	return v, nil
}

// refLinkedIn is the reference LinkedIn codec. Its decoder ranges over
// each or-term's facet map, so a term naming two facets yields its refs in
// random order; compare its specs through targeting.Canonical.
type refLinkedIn struct{}

// liOrTerm is one or-term: facet URN → member URN list.
type liOrTerm struct {
	Or map[string][]string `json:"or"`
}

// liCriteria is the and-of-ors tree.
type liCriteria struct {
	And []liOrTerm `json:"and,omitempty"`
}

// liRequest is the audienceCounts request body.
type liRequest struct {
	Include   *liCriteria `json:"include,omitempty"`
	Exclude   *liCriteria `json:"exclude,omitempty"`
	Objective string      `json:"objectiveType,omitempty"`
}

// liResponse is the audienceCounts response body.
type liResponse struct {
	Elements []struct {
		Total int64 `json:"total"`
	} `json:"elements"`
}

// refToURN renders a ref as (facet, member URN).
func refToURN(r targeting.Ref) (facet, urn string, err error) {
	switch r.Kind {
	case targeting.KindAttribute:
		return liFacetAttribute, fmt.Sprintf("urn:li:attribute:%d", r.ID), nil
	case targeting.KindGender:
		if r.ID < 0 || r.ID >= len(liGenderURNs) {
			return "", "", fmt.Errorf("%w: gender %d", targeting.ErrInvalidDemoValue, r.ID)
		}
		return liFacetGender, liGenderURNs[r.ID], nil
	case targeting.KindAge:
		if r.ID < 0 || r.ID >= len(liAgeURNs) {
			return "", "", fmt.Errorf("%w: age %d", targeting.ErrInvalidDemoValue, r.ID)
		}
		return liFacetAge, liAgeURNs[r.ID], nil
	case targeting.KindCustomAudience:
		return liFacetAudience, fmt.Sprintf("urn:li:matchedAudience:%d", r.ID), nil
	case targeting.KindLocation:
		code, err := regionCode(r.ID)
		if err != nil {
			return "", "", err
		}
		return liFacetLocation, "urn:li:geo:" + code, nil
	default:
		return "", "", fmt.Errorf("%w: %s", targeting.ErrKindForbidden, r)
	}
}

// refURNToRef parses a member URN under a facet back into a ref.
func refURNToRef(facet, urn string) (targeting.Ref, error) {
	switch facet {
	case liFacetAudience:
		const aPrefix = "urn:li:matchedAudience:"
		if !strings.HasPrefix(urn, aPrefix) {
			return targeting.Ref{}, fmt.Errorf("adapi: bad audience urn %q", urn)
		}
		id, err := strconv.Atoi(urn[len(aPrefix):])
		if err != nil {
			return targeting.Ref{}, fmt.Errorf("adapi: bad audience urn %q: %w", urn, err)
		}
		return targeting.Ref{Kind: targeting.KindCustomAudience, ID: id}, nil
	case liFacetLocation:
		const gPrefix = "urn:li:geo:"
		if !strings.HasPrefix(urn, gPrefix) {
			return targeting.Ref{}, fmt.Errorf("adapi: bad geo urn %q", urn)
		}
		id, err := regionFromCode([]byte(urn[len(gPrefix):]))
		if err != nil {
			return targeting.Ref{}, err
		}
		return targeting.Ref{Kind: targeting.KindLocation, ID: id}, nil
	case liFacetAttribute:
		const prefix = "urn:li:attribute:"
		if !strings.HasPrefix(urn, prefix) {
			return targeting.Ref{}, fmt.Errorf("adapi: bad attribute urn %q", urn)
		}
		id, err := strconv.Atoi(urn[len(prefix):])
		if err != nil {
			return targeting.Ref{}, fmt.Errorf("adapi: bad attribute urn %q: %w", urn, err)
		}
		return targeting.Ref{Kind: targeting.KindAttribute, ID: id}, nil
	case liFacetGender:
		for i, u := range liGenderURNs {
			if u == urn {
				return targeting.Ref{Kind: targeting.KindGender, ID: i}, nil
			}
		}
	case liFacetAge:
		for i, u := range liAgeURNs {
			if u == urn {
				return targeting.Ref{Kind: targeting.KindAge, ID: i}, nil
			}
		}
	}
	return targeting.Ref{}, fmt.Errorf("adapi: unknown urn %q under facet %q", urn, facet)
}

// refEncodeCriteria renders clauses as an and-of-ors tree.
func refEncodeCriteria(clauses []targeting.Clause) (*liCriteria, error) {
	if len(clauses) == 0 {
		return nil, nil
	}
	out := &liCriteria{}
	for _, cl := range clauses {
		if len(cl) == 0 {
			return nil, targeting.ErrEmptyClause
		}
		term := liOrTerm{Or: make(map[string][]string)}
		kind := cl[0].Kind
		for _, r := range cl {
			if r.Kind != kind {
				return nil, targeting.ErrMixedClause
			}
			facet, urn, err := refToURN(r)
			if err != nil {
				return nil, err
			}
			term.Or[facet] = append(term.Or[facet], urn)
		}
		out.And = append(out.And, term)
	}
	return out, nil
}

// refDecodeCriteria parses an and-of-ors tree into clauses.
func refDecodeCriteria(c *liCriteria) ([]targeting.Clause, error) {
	if c == nil {
		return nil, nil
	}
	var out []targeting.Clause
	for _, term := range c.And {
		var cl targeting.Clause
		for facet, urns := range term.Or {
			for _, urn := range urns {
				r, err := refURNToRef(facet, urn)
				if err != nil {
					return nil, err
				}
				cl = append(cl, r)
			}
		}
		out = append(out, cl)
	}
	return out, nil
}

// EncodeRequest implements refCodec.
func (refLinkedIn) EncodeRequest(req platform.EstimateRequest) ([]byte, error) {
	inc, err := refEncodeCriteria(req.Spec.Include)
	if err != nil {
		return nil, err
	}
	exc, err := refEncodeCriteria(req.Spec.Exclude)
	if err != nil {
		return nil, err
	}
	obj := ""
	if req.Objective != "" {
		var ok bool
		obj, ok = liObjectives[req.Objective]
		if !ok {
			return nil, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
		}
	}
	return json.Marshal(liRequest{Include: inc, Exclude: exc, Objective: obj})
}

// DecodeRequest implements refCodec.
func (refLinkedIn) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	var req liRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed linkedin request: %w", err)
	}
	inc, err := refDecodeCriteria(req.Include)
	if err != nil {
		return platform.EstimateRequest{}, err
	}
	exc, err := refDecodeCriteria(req.Exclude)
	if err != nil {
		return platform.EstimateRequest{}, err
	}
	out := platform.EstimateRequest{Spec: targeting.Spec{Include: inc, Exclude: exc}}
	switch req.Objective {
	case "":
	case "BRAND_AWARENESS":
		out.Objective = platform.ObjectiveBrandAwareness
	case "WEBSITE_VISIT":
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
	}
	return out, nil
}

// EncodeResponse implements refCodec.
func (refLinkedIn) EncodeResponse(size int64) ([]byte, error) {
	var resp liResponse
	resp.Elements = append(resp.Elements, struct {
		Total int64 `json:"total"`
	}{Total: size})
	return json.Marshal(resp)
}

// DecodeResponse implements refCodec.
func (refLinkedIn) DecodeResponse(body []byte) (int64, error) {
	var resp liResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("adapi: malformed linkedin response: %w", err)
	}
	if len(resp.Elements) != 1 {
		return 0, fmt.Errorf("adapi: linkedin response has %d elements", len(resp.Elements))
	}
	return resp.Elements[0].Total, nil
}

// batchRequest is the envelope of POST /{platform}/measure-batch: an ordered
// list of auditor-door request bodies, each in the platform's own dialect —
// the same bytes POST /measure accepts, shipped together so one HTTP
// exchange (and one rate-limit token) answers the whole batch.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// batchSlot is one slot of the batch response: the dialect response body for
// a slot that succeeded, or the endpoint's usual error envelope content for
// one that failed. Exactly one of the two fields is set.
type batchSlot struct {
	Body  json.RawMessage `json:"body,omitempty"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// batchResponse is the envelope of a measure-batch response, slot-for-slot
// parallel to the request list.
type batchResponse struct {
	Results []batchSlot `json:"results"`
}

// slotError fills a response slot with a wire-coded error.
func slotError(code, message string) batchSlot {
	var s batchSlot
	s.Error = &struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}{Code: code, Message: message}
	return s
}

// refEncodeBatchResponse renders a batch response envelope as the server
// wrote it.
func refEncodeBatchResponse(resp batchResponse) []byte {
	var buf strings.Builder
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		panic(err)
	}
	return []byte(buf.String())
}
