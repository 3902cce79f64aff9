package adapi

import (
	"fmt"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// linkedInCodec speaks the audienceCounts dialect: an and-of-ors targeting
// criteria tree whose facets are URN-keyed lists. Gender and age are
// ordinary facets (LinkedIn has no separate demographic dimension — paper §3
// footnote 4), which is exactly how Class conditioning reaches the wire. A
// request body is
//
//	{"include": {"and": [{"or": {"<facet URN>": ["<member URN>", …]}}, …]},
//	 "exclude": {"and": […]},
//	 "objectiveType": "BRAND_AWARENESS"}
//
// with empty trees and an empty objective left out; each or-term the
// encoder writes names one facet. A response body is
// {"elements":[{"total":300}]}.
type linkedInCodec struct{}

// LinkedIn facet URNs.
const (
	liFacetAttribute = "urn:li:adTargetingFacet:attributes"
	liFacetGender    = "urn:li:adTargetingFacet:genders"
	liFacetAge       = "urn:li:adTargetingFacet:ageRanges"
	liFacetAudience  = "urn:li:adTargetingFacet:audienceMatchingSegments"
	liFacetLocation  = "urn:li:adTargetingFacet:locations"
)

// The keys of each LinkedIn object, in the order the encoder writes them.
var (
	liRequestKeys  = []string{"include", "exclude", "objectiveType"}
	liCriteriaKeys = []string{"and"}
	liTermKeys     = []string{"or"}
	liResponseKeys = []string{"elements"}
	liElementKeys  = []string{"total"}
)

func (linkedInCodec) Platform() string { return catalog.PlatformLinkedIn }

// liGenderURNs maps gender IDs to member URNs.
var liGenderURNs = []string{"urn:li:gender:MALE", "urn:li:gender:FEMALE"}

// liAgeURNs maps age-range IDs to member URNs.
var liAgeURNs = []string{
	"urn:li:ageRange:(18,24)",
	"urn:li:ageRange:(25,34)",
	"urn:li:ageRange:(35,54)",
	"urn:li:ageRange:(55,2147483647)",
}

// liObjectives maps objectives to LinkedIn objective types.
var liObjectives = map[platform.Objective]string{
	platform.ObjectiveBrandAwareness: "BRAND_AWARENESS",
	platform.ObjectiveTraffic:        "WEBSITE_VISIT",
}

// liFacetOf returns the facet a kind's refs travel under, or "" for a kind
// LinkedIn cannot express.
func liFacetOf(k targeting.Kind) string {
	switch k {
	case targeting.KindAttribute:
		return liFacetAttribute
	case targeting.KindGender:
		return liFacetGender
	case targeting.KindAge:
		return liFacetAge
	case targeting.KindCustomAudience:
		return liFacetAudience
	case targeting.KindLocation:
		return liFacetLocation
	}
	return ""
}

// appendURN appends a ref's member URN as a JSON string.
func appendURN(dst []byte, r targeting.Ref) ([]byte, error) {
	switch r.Kind {
	case targeting.KindAttribute:
		dst = strconv.AppendInt(append(dst, `"urn:li:attribute:`...), int64(r.ID), 10)
		return append(dst, '"'), nil
	case targeting.KindGender:
		if r.ID < 0 || r.ID >= len(liGenderURNs) {
			return dst, fmt.Errorf("%w: gender %d", targeting.ErrInvalidDemoValue, r.ID)
		}
		return appendString(dst, liGenderURNs[r.ID]), nil
	case targeting.KindAge:
		if r.ID < 0 || r.ID >= len(liAgeURNs) {
			return dst, fmt.Errorf("%w: age %d", targeting.ErrInvalidDemoValue, r.ID)
		}
		return appendString(dst, liAgeURNs[r.ID]), nil
	case targeting.KindCustomAudience:
		dst = strconv.AppendInt(append(dst, `"urn:li:matchedAudience:`...), int64(r.ID), 10)
		return append(dst, '"'), nil
	case targeting.KindLocation:
		code, err := regionCode(r.ID)
		if err != nil {
			return dst, err
		}
		return append(append(append(dst, `"urn:li:geo:`...), code...), '"'), nil
	default:
		return dst, fmt.Errorf("%w: %s", targeting.ErrKindForbidden, r)
	}
}

// urnToRef parses a member URN under a facet back into a ref.
func urnToRef(facet, urn []byte) (targeting.Ref, error) {
	switch string(facet) {
	case liFacetAudience:
		rest, ok := cutPrefix(urn, "urn:li:matchedAudience:")
		if !ok {
			return targeting.Ref{}, fmt.Errorf("adapi: bad audience urn %q", urn)
		}
		id, err := strconv.Atoi(string(rest))
		if err != nil {
			return targeting.Ref{}, fmt.Errorf("adapi: bad audience urn %q: %w", urn, err)
		}
		return targeting.Ref{Kind: targeting.KindCustomAudience, ID: id}, nil
	case liFacetLocation:
		code, ok := cutPrefix(urn, "urn:li:geo:")
		if !ok {
			return targeting.Ref{}, fmt.Errorf("adapi: bad geo urn %q", urn)
		}
		id, err := regionFromCode(code)
		if err != nil {
			return targeting.Ref{}, err
		}
		return targeting.Ref{Kind: targeting.KindLocation, ID: id}, nil
	case liFacetAttribute:
		rest, ok := cutPrefix(urn, "urn:li:attribute:")
		if !ok {
			return targeting.Ref{}, fmt.Errorf("adapi: bad attribute urn %q", urn)
		}
		id, err := strconv.Atoi(string(rest))
		if err != nil {
			return targeting.Ref{}, fmt.Errorf("adapi: bad attribute urn %q: %w", urn, err)
		}
		return targeting.Ref{Kind: targeting.KindAttribute, ID: id}, nil
	case liFacetGender:
		for i, u := range liGenderURNs {
			if u == string(urn) {
				return targeting.Ref{Kind: targeting.KindGender, ID: i}, nil
			}
		}
	case liFacetAge:
		for i, u := range liAgeURNs {
			if u == string(urn) {
				return targeting.Ref{Kind: targeting.KindAge, ID: i}, nil
			}
		}
	}
	return targeting.Ref{}, fmt.Errorf("adapi: unknown urn %q under facet %q", urn, facet)
}

// cutPrefix returns b without prefix, and whether b began with it.
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// AppendRequest implements Codec. It writes the trees as it checks them,
// include before exclude, clause by clause and ref by ref, and returns dst
// unchanged at the first error.
func (linkedInCodec) AppendRequest(dst []byte, req platform.EstimateRequest) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	var err error
	if dst, err = appendCriteria(dst, "include", req.Spec.Include); err != nil {
		return dst[:start], err
	}
	if dst, err = appendCriteria(dst, "exclude", req.Spec.Exclude); err != nil {
		return dst[:start], err
	}
	if req.Objective != "" {
		obj, ok := liObjectives[req.Objective]
		if !ok {
			return dst[:start], fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
		}
		dst = appendString(appendKey(dst, "objectiveType"), obj)
	}
	return append(dst, '}'), nil
}

// appendCriteria appends key's and-of-ors tree when there are clauses: one
// or-term per clause, naming the facet of the clause's one kind.
func appendCriteria(dst []byte, key string, clauses []targeting.Clause) ([]byte, error) {
	if len(clauses) == 0 {
		return dst, nil
	}
	dst = append(appendKey(dst, key), `{"and":[`...)
	for _, cl := range clauses {
		if len(cl) == 0 {
			return dst, targeting.ErrEmptyClause
		}
		dst = append(sep(dst), `{"or":{`...)
		dst = append(appendKey(dst, liFacetOf(cl[0].Kind)), '[')
		for _, r := range cl {
			if r.Kind != cl[0].Kind {
				return dst, targeting.ErrMixedClause
			}
			var err error
			if dst, err = appendURN(sep(dst), r); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "]}}"...)
	}
	return append(dst, "]}"...), nil
}

// DecodeRequest implements Codec.
func (l linkedInCodec) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	return l.decodeRequest(&cursor{buf: body}, new(specArena))
}

func (linkedInCodec) decodeRequest(cur *cursor, a *specArena) (platform.EstimateRequest, error) {
	outer := cur.begin()
	var (
		inc, exc       []targeting.Clause
		incErr, excErr error
		objective      []byte
	)
	cur.members(liRequestKeys, func(i int) {
		switch i {
		case 0:
			inc, incErr = readCriteria(cur, a)
		case 1:
			exc, excErr = readCriteria(cur, a)
		case 2:
			objective = cur.str()
		}
	})
	if err := cur.settle(outer); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed linkedin request: %w", err)
	}
	if incErr != nil {
		return platform.EstimateRequest{}, incErr
	}
	if excErr != nil {
		return platform.EstimateRequest{}, excErr
	}
	out := platform.EstimateRequest{Spec: targeting.Spec{Include: inc, Exclude: exc}}
	switch string(objective) {
	case "":
	case "BRAND_AWARENESS":
		out.Objective = platform.ObjectiveBrandAwareness
	case "WEBSITE_VISIT":
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, objective)
	}
	return out, nil
}

// readCriteria reads an and-of-ors tree as clauses, one per or-term, with
// each term's refs in document order. An or-term's facets are a JSON map,
// whose keys match exactly; a facet named twice in one term is refused,
// where encoding/json would keep the second list alone. The error names
// the first member URN that is no option; the caller reports it only once
// the walk succeeded.
func readCriteria(cur *cursor, a *specArena) (out []targeting.Clause, firstErr error) {
	start := len(a.clauses)
	cur.members(liCriteriaKeys, func(int) {
		cur.elements(func() {
			from := len(a.refs)
			cur.members(liTermKeys, func(int) {
				var buf [4][]byte
				named := buf[:0] // the facets this term has named
				cur.entries(func(facet []byte) {
					for _, f := range named {
						if string(f) == string(facet) {
							cur.refuse("%w: facet %q repeated", errAmbiguousKey, facet)
							cur.skip()
							return
						}
					}
					named = append(named, facet)
					cur.elements(func() {
						r, err := urnToRef(facet, cur.str())
						if err != nil {
							if firstErr == nil {
								firstErr = err
							}
							return
						}
						a.ref(r.Kind, r.ID)
					})
				})
			})
			a.push(a.clause(from))
		})
	})
	return a.list(start), firstErr
}

// AppendResponse implements Codec.
func (linkedInCodec) AppendResponse(dst []byte, size int64) []byte {
	dst = strconv.AppendInt(append(dst, `{"elements":[{"total":`...), size, 10)
	return append(dst, "}]}"...)
}

// DecodeResponse implements Codec.
func (l linkedInCodec) DecodeResponse(body []byte) (int64, error) {
	return l.decodeResponse(&cursor{buf: body})
}

func (linkedInCodec) decodeResponse(cur *cursor) (int64, error) {
	outer := cur.begin()
	var (
		elements int
		total    int64
	)
	cur.members(liResponseKeys, func(int) {
		cur.elements(func() {
			elements++
			cur.members(liElementKeys, func(int) { total = cur.int64() })
		})
	})
	if err := cur.settle(outer); err != nil {
		return 0, fmt.Errorf("adapi: malformed linkedin response: %w", err)
	}
	if elements != 1 {
		return 0, fmt.Errorf("adapi: linkedin response has %d elements", elements)
	}
	return total, nil
}
