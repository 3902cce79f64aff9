package adapi

import (
	"fmt"
	"strconv"

	"repro/internal/platform"
	"repro/internal/targeting"
)

// facebookCodec speaks the Marketing-API-style delivery_estimate dialect
// used by both Facebook interfaces: OR-groups of interests under
// flexible_spec, a merged exclusions group, genders as 1 (male) / 2
// (female), and age ranges as min/max bounds. A request body is
//
//	{"targeting_spec": {
//	    "flexible_spec": [{"interests": [{"id": 1}, …]}, …],
//	    "exclusions": {"interests": [{"id": 5}, …]},
//	    "genders": [1, 2],
//	    "age_ranges": [{"min": 18, "max": 24}, {"min": 55}],
//	    "custom_audiences": [[{"id": 2}, …], …],
//	    "geo_locations": {"countries": ["US", …]}},
//	 "optimization_goal": "REACH"}
//
// in that key order, with empty blocks, a max of 0 (no upper bound) and an
// empty goal left out. A response body is {"data":[{"estimate_mau":1000}]}.
type facebookCodec struct {
	platform string
}

func (c facebookCodec) Platform() string { return c.platform }

// goalNames maps objectives to Facebook optimization goals.
var goalNames = map[platform.Objective]string{
	platform.ObjectiveReach:   "REACH",
	platform.ObjectiveTraffic: "LINK_CLICKS",
}

// The keys of each Facebook object, in the order the encoder writes them.
var (
	fbRequestKeys   = []string{"targeting_spec", "optimization_goal"}
	fbTargetingKeys = []string{"flexible_spec", "exclusions", "genders", "age_ranges", "custom_audiences", "geo_locations"}
	fbGroupKeys     = []string{"interests"}
	fbIDKeys        = []string{"id"}
	fbAgeKeys       = []string{"min", "max"}
	fbGeoKeys       = []string{"countries"}
	fbResponseKeys  = []string{"data"}
	fbEstimateKeys  = []string{"estimate_mau"}
)

// AppendRequest implements Codec. It checks the whole request before
// writing a byte, so the first error is the one the checks meet first:
// clause shapes, topics, one gender and one age clause, age ranges,
// locations, exclusions, objective.
func (c facebookCodec) AppendRequest(dst []byte, req platform.EstimateRequest) ([]byte, error) {
	inc, exc := req.Spec.Include, req.Spec.Exclude
	if err := checkClauses(inc); err != nil {
		return dst, err
	}
	if hasKind(inc, targeting.KindTopic) {
		return dst, fmt.Errorf("%w: facebook has no topic feature", targeting.ErrKindForbidden)
	}
	if err := checkDemoLists(inc, "facebook"); err != nil {
		return dst, err
	}
	for _, cl := range inc {
		if cl[0].Kind == targeting.KindAge {
			if err := checkAges(cl); err != nil {
				return dst, err
			}
		}
	}
	var geo targeting.Clause
	for _, cl := range inc {
		if cl[0].Kind != targeting.KindLocation {
			continue
		}
		for _, r := range cl {
			if _, err := regionCode(r.ID); err != nil {
				return dst, err
			}
		}
		if geo != nil {
			return dst, fmt.Errorf("%w: facebook supports one location block", targeting.ErrTooManyClauses)
		}
		geo = cl
	}
	// All exclusion clauses merge into one OR-group: ¬(A∨B) ∧ ¬(C) ≡
	// ¬(A∨B∨C). Only attribute exclusions are expressible.
	if err := checkClauses(exc); err != nil {
		return dst, err
	}
	for _, cl := range exc {
		if cl[0].Kind != targeting.KindAttribute {
			return dst, fmt.Errorf("%w: facebook exclusions accept attributes only", targeting.ErrKindForbidden)
		}
	}
	goal, ok := goalNames[req.Objective]
	if req.Objective != "" && !ok {
		return dst, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
	}

	dst = append(dst, `{"targeting_spec":{`...)
	if hasKind(inc, targeting.KindAttribute) {
		dst = append(appendKey(dst, "flexible_spec"), '[')
		for _, cl := range inc {
			if cl[0].Kind == targeting.KindAttribute {
				dst = append(sep(dst), `{"interests":[`...)
				dst = append(appendFBIDs(dst, cl), "]}"...)
			}
		}
		dst = append(dst, ']')
	}
	if len(exc) > 0 {
		dst = append(appendKey(dst, "exclusions"), `{"interests":[`...)
		for _, cl := range exc {
			dst = appendFBIDs(dst, cl)
		}
		dst = append(dst, "]}"...)
	}
	if hasKind(inc, targeting.KindGender) {
		dst = append(appendKey(dst, "genders"), '[')
		for _, cl := range inc {
			if cl[0].Kind == targeting.KindGender {
				dst = appendIDs(dst, cl, 1) // Facebook genders are 1-based (1=male, 2=female).
			}
		}
		dst = append(dst, ']')
	}
	if hasKind(inc, targeting.KindAge) {
		dst = append(appendKey(dst, "age_ranges"), '[')
		for _, cl := range inc {
			if cl[0].Kind != targeting.KindAge {
				continue
			}
			for _, r := range cl {
				b := ageBounds[r.ID]
				dst = strconv.AppendInt(append(sep(dst), `{"min":`...), int64(b[0]), 10)
				if b[1] != 0 {
					dst = strconv.AppendInt(append(dst, `,"max":`...), int64(b[1]), 10)
				}
				dst = append(dst, '}')
			}
		}
		dst = append(dst, ']')
	}
	if hasKind(inc, targeting.KindCustomAudience) {
		dst = append(appendKey(dst, "custom_audiences"), '[')
		for _, cl := range inc {
			if cl[0].Kind == targeting.KindCustomAudience {
				dst = append(appendFBIDs(append(sep(dst), '['), cl), ']')
			}
		}
		dst = append(dst, ']')
	}
	if geo != nil {
		dst = append(appendKey(dst, "geo_locations"), `{"countries":[`...)
		for _, r := range geo {
			dst = appendString(sep(dst), regionCodes[r.ID])
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, '}')
	if goal != "" {
		dst = appendString(appendKey(dst, "optimization_goal"), goal)
	}
	return append(dst, '}'), nil
}

// appendFBIDs appends a clause's refs as {"id":…} list elements.
func appendFBIDs(dst []byte, cl targeting.Clause) []byte {
	for _, r := range cl {
		dst = strconv.AppendInt(append(sep(dst), `{"id":`...), int64(r.ID), 10)
		dst = append(dst, '}')
	}
	return dst
}

// DecodeRequest implements Codec.
func (c facebookCodec) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	return c.decodeRequest(&cursor{buf: body}, new(specArena))
}

func (facebookCodec) decodeRequest(cur *cursor, a *specArena) (platform.EstimateRequest, error) {
	outer := cur.begin()
	var (
		flex, audiences    []targeting.Clause
		genders, ages, geo targeting.Clause
		excl               targeting.Clause
		hasGeo, hasExcl    bool
		goal               []byte
		ageErr, geoErr     error
	)
	cur.members(fbRequestKeys, func(i int) {
		if i == 1 {
			goal = cur.str()
			return
		}
		cur.members(fbTargetingKeys, func(i int) {
			switch i {
			case 0: // flexible_spec
				start := len(a.clauses)
				cur.elements(func() { a.push(fbGroup(cur, a)) })
				flex = a.list(start)
			case 1: // exclusions
				if !cur.null() {
					hasExcl, excl = true, fbGroup(cur, a)
				}
			case 2: // genders
				start := len(a.refs)
				cur.elements(func() { a.ref(targeting.KindGender, cur.int()-1) })
				genders = a.clause(start)
			case 3: // age_ranges
				start := len(a.refs)
				cur.elements(func() {
					var b [2]int // min, max
					cur.members(fbAgeKeys, func(i int) { b[i] = cur.int() })
					id, err := ageRangeFromBounds(b[0], b[1])
					if ageErr == nil {
						ageErr = err
					}
					a.ref(targeting.KindAge, id)
				})
				ages = a.clause(start)
			case 4: // custom_audiences
				start := len(a.clauses)
				cur.elements(func() { a.push(fbIDs(cur, a, targeting.KindCustomAudience)) })
				audiences = a.list(start)
			case 5: // geo_locations
				if cur.null() {
					return
				}
				hasGeo = true
				start := len(a.refs)
				cur.members(fbGeoKeys, func(int) {
					cur.elements(func() {
						id, err := regionFromCode(cur.str())
						if geoErr == nil {
							geoErr = err
						}
						a.ref(targeting.KindLocation, id)
					})
				})
				geo = a.clause(start)
			}
		})
	})
	if err := cur.settle(outer); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed facebook request: %w", err)
	}
	if ageErr != nil {
		return platform.EstimateRequest{}, ageErr
	}
	if geoErr != nil {
		return platform.EstimateRequest{}, geoErr
	}
	start := len(a.clauses)
	a.push(flex...)
	if len(genders) > 0 {
		a.push(genders)
	}
	if len(ages) > 0 {
		a.push(ages)
	}
	if hasGeo {
		a.push(geo)
	}
	a.push(audiences...)
	spec := targeting.Spec{Include: a.list(start)}
	if hasExcl {
		start = len(a.clauses)
		a.push(excl)
		spec.Exclude = a.list(start)
	}
	out := platform.EstimateRequest{Spec: spec}
	switch string(goal) {
	case "":
	case "REACH":
		out.Objective = platform.ObjectiveReach
	case "LINK_CLICKS":
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, goal)
	}
	return out, nil
}

// fbGroup reads an OR-group, {"interests":[{"id":…},…]}, as a clause of
// attributes.
func fbGroup(cur *cursor, a *specArena) (cl targeting.Clause) {
	cur.members(fbGroupKeys, func(int) { cl = fbIDs(cur, a, targeting.KindAttribute) })
	return cl
}

// fbIDs reads a list of {"id":…} objects as a clause of kind.
func fbIDs(cur *cursor, a *specArena, kind targeting.Kind) targeting.Clause {
	start := len(a.refs)
	cur.elements(func() {
		id := 0
		cur.members(fbIDKeys, func(int) { id = cur.int() })
		a.ref(kind, id)
	})
	return a.clause(start)
}

// AppendResponse implements Codec.
func (facebookCodec) AppendResponse(dst []byte, size int64) []byte {
	dst = strconv.AppendInt(append(dst, `{"data":[{"estimate_mau":`...), size, 10)
	return append(dst, "}]}"...)
}

// DecodeResponse implements Codec.
func (c facebookCodec) DecodeResponse(body []byte) (int64, error) {
	return c.decodeResponse(&cursor{buf: body})
}

func (facebookCodec) decodeResponse(cur *cursor) (int64, error) {
	outer := cur.begin()
	var (
		entries int
		mau     int64
	)
	cur.members(fbResponseKeys, func(int) {
		cur.elements(func() {
			entries++
			cur.members(fbEstimateKeys, func(int) { mau = cur.int64() })
		})
	})
	if err := cur.settle(outer); err != nil {
		return 0, fmt.Errorf("adapi: malformed facebook response: %w", err)
	}
	if entries != 1 {
		return 0, fmt.Errorf("adapi: facebook response has %d data entries", entries)
	}
	return mau, nil
}
