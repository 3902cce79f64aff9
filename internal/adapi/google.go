package adapi

import (
	"fmt"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// googleCodec speaks the obfuscated reach-estimate dialect: bodies are JSON
// keyed by opaque numeric strings and the estimate itself travels as a
// decimal string. The field meanings below are the mapping an auditor
// recovers by varying one targeting option at a time and diffing requests
// (paper §3: "by manually varying the targeting options systematically, we
// find a mapping between the targeting options and particular keys and
// values in the obfuscated json"):
//
//	"1"        campaign envelope
//	"1"."2"    targeting
//	"1"."2"."3"  attribute OR-groups (lists of option ids)
//	"1"."2"."4"  topic OR-groups
//	"1"."2"."6"  genders (1 = male, 2 = female)
//	"1"."2"."7"  age brackets as [min, max] pairs (max 0 = unbounded)
//	"1"."2"."9"  exclusions {"3": attr groups, "4": topic groups}
//	"1"."2"."8"  geo criterion groups (region ids)
//	"1"."2"."12" managed-placement groups (publisher-site ids)
//	"1"."2"."11" custom-audience (customer-match) groups
//	"1"."5"    per-user monthly frequency cap
//	"1"."10"   campaign objective enum (1 = display reach, 2 = traffic)
//
// The encoder writes the targeting keys in the order 3, 4, 6, 7, 9, 11, 8,
// 12 and leaves out empty ones, a zero cap and a zero objective.
// Response: {"1": {"2": "<estimate as decimal string>"}}.
type googleCodec struct{}

func (googleCodec) Platform() string { return catalog.PlatformGoogle }

// Google objective enum values.
const (
	gObjectiveDisplayReach = 1
	gObjectiveTraffic      = 2
)

// The keys of each Google object, in the order the encoder writes them.
var (
	gRequestKeys   = []string{"1"}
	gCampaignKeys  = []string{"2", "5", "10"}
	gTargetingKeys = []string{"3", "4", "6", "7", "9", "11", "8", "12"}
	gExcludeKeys   = []string{"3", "4"}
	gResponseKeys  = []string{"1"}
	gResultKeys    = []string{"2"}
)

// AppendRequest implements Codec. It checks the whole request before
// writing a byte: clause shapes, one gender and one age clause, age
// ranges, exclusions, objective.
func (googleCodec) AppendRequest(dst []byte, req platform.EstimateRequest) ([]byte, error) {
	inc, exc := req.Spec.Include, req.Spec.Exclude
	if err := checkClauses(inc); err != nil {
		return dst, err
	}
	if err := checkDemoLists(inc, "google"); err != nil {
		return dst, err
	}
	for _, cl := range inc {
		if cl[0].Kind == targeting.KindAge {
			if err := checkAges(cl); err != nil {
				return dst, err
			}
		}
	}
	if err := checkClauses(exc); err != nil {
		return dst, err
	}
	for _, cl := range exc {
		if k := cl[0].Kind; k != targeting.KindAttribute && k != targeting.KindTopic {
			return dst, fmt.Errorf("%w: google exclusions accept attributes and topics only", targeting.ErrKindForbidden)
		}
	}
	objective := 0
	switch req.Objective {
	case "":
	case platform.ObjectiveBrandAwarenessReach:
		objective = gObjectiveDisplayReach
	case platform.ObjectiveTraffic:
		objective = gObjectiveTraffic
	default:
		return dst, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, req.Objective)
	}

	dst = append(dst, `{"1":{"2":{`...)
	dst = appendGroups(dst, "3", inc, targeting.KindAttribute)
	dst = appendGroups(dst, "4", inc, targeting.KindTopic)
	if hasKind(inc, targeting.KindGender) {
		dst = append(appendKey(dst, "6"), '[')
		for _, cl := range inc {
			if cl[0].Kind == targeting.KindGender {
				dst = appendIDs(dst, cl, 1)
			}
		}
		dst = append(dst, ']')
	}
	if hasKind(inc, targeting.KindAge) {
		dst = append(appendKey(dst, "7"), '[')
		for _, cl := range inc {
			if cl[0].Kind != targeting.KindAge {
				continue
			}
			for _, r := range cl {
				b := ageBounds[r.ID]
				dst = strconv.AppendInt(append(sep(dst), '['), int64(b[0]), 10)
				dst = strconv.AppendInt(append(dst, ','), int64(b[1]), 10)
				dst = append(dst, ']')
			}
		}
		dst = append(dst, ']')
	}
	if len(exc) > 0 {
		dst = append(appendKey(dst, "9"), '{')
		dst = appendGroups(dst, "3", exc, targeting.KindAttribute)
		dst = append(appendGroups(dst, "4", exc, targeting.KindTopic), '}')
	}
	dst = appendGroups(dst, "11", inc, targeting.KindCustomAudience)
	dst = appendGroups(dst, "8", inc, targeting.KindLocation)
	dst = append(appendGroups(dst, "12", inc, targeting.KindPlacement), '}')
	if req.FrequencyCapPerMonth != 0 {
		dst = strconv.AppendInt(appendKey(dst, "5"), int64(req.FrequencyCapPerMonth), 10)
	}
	if objective != 0 {
		dst = strconv.AppendInt(appendKey(dst, "10"), int64(objective), 10)
	}
	return append(dst, "}}"...), nil
}

// appendGroups appends key's member, the clauses of kind as arrays of
// option ids, when there are any.
func appendGroups(dst []byte, key string, clauses []targeting.Clause, kind targeting.Kind) []byte {
	if !hasKind(clauses, kind) {
		return dst
	}
	dst = append(appendKey(dst, key), '[')
	for _, cl := range clauses {
		if cl[0].Kind == kind {
			dst = append(appendIDs(append(sep(dst), '['), cl, 0), ']')
		}
	}
	return append(dst, ']')
}

// DecodeRequest implements Codec.
func (g googleCodec) DecodeRequest(body []byte) (platform.EstimateRequest, error) {
	return g.decodeRequest(&cursor{buf: body}, new(specArena))
}

func (googleCodec) decodeRequest(cur *cursor, a *specArena) (platform.EstimateRequest, error) {
	outer := cur.begin()
	var (
		attrs, topics, audiences, locations, placements []targeting.Clause
		exAttrs, exTopics                               []targeting.Clause
		genders, ages                                   targeting.Clause
		freqCap, objective                              int
		ageErr                                          error
	)
	cur.members(gRequestKeys, func(int) {
		cur.members(gCampaignKeys, func(i int) {
			switch i {
			case 1: // "5"
				freqCap = cur.int()
				return
			case 2: // "10"
				objective = cur.int()
				return
			}
			cur.members(gTargetingKeys, func(i int) {
				switch i {
				case 0: // "3"
					attrs = gGroups(cur, a, targeting.KindAttribute)
				case 1: // "4"
					topics = gGroups(cur, a, targeting.KindTopic)
				case 2: // "6"
					start := len(a.refs)
					cur.elements(func() { a.ref(targeting.KindGender, cur.int()-1) })
					genders = a.clause(start)
				case 3: // "7": [min, max] pairs, read as a Go [2]int reads them
					start := len(a.refs)
					cur.elements(func() {
						var b [2]int
						n := 0
						cur.elements(func() {
							if n < len(b) {
								b[n] = cur.int()
							} else {
								cur.skip()
							}
							n++
						})
						id, err := ageRangeFromBounds(b[0], b[1])
						if ageErr == nil {
							ageErr = err
						}
						a.ref(targeting.KindAge, id)
					})
					ages = a.clause(start)
				case 4: // "9": exclusions
					cur.members(gExcludeKeys, func(i int) {
						if i == 0 {
							exAttrs = gGroups(cur, a, targeting.KindAttribute)
						} else {
							exTopics = gGroups(cur, a, targeting.KindTopic)
						}
					})
				case 5: // "11"
					audiences = gGroups(cur, a, targeting.KindCustomAudience)
				case 6: // "8"
					locations = gGroups(cur, a, targeting.KindLocation)
				case 7: // "12"
					placements = gGroups(cur, a, targeting.KindPlacement)
				}
			})
		})
	})
	if err := cur.settle(outer); err != nil {
		return platform.EstimateRequest{}, fmt.Errorf("adapi: malformed google request: %w", err)
	}
	if ageErr != nil {
		return platform.EstimateRequest{}, ageErr
	}
	start := len(a.clauses)
	for _, group := range [][]targeting.Clause{attrs, topics, audiences, locations, placements} {
		a.push(group...)
	}
	if len(genders) > 0 {
		a.push(genders)
	}
	if len(ages) > 0 {
		a.push(ages)
	}
	spec := targeting.Spec{Include: a.list(start)}
	start = len(a.clauses)
	a.push(exAttrs...)
	a.push(exTopics...)
	spec.Exclude = a.list(start)
	out := platform.EstimateRequest{Spec: spec, FrequencyCapPerMonth: freqCap}
	switch objective {
	case 0:
	case gObjectiveDisplayReach:
		out.Objective = platform.ObjectiveBrandAwarenessReach
	case gObjectiveTraffic:
		out.Objective = platform.ObjectiveTraffic
	default:
		return platform.EstimateRequest{}, fmt.Errorf("%w: enum %d", platform.ErrUnknownObjective, objective)
	}
	return out, nil
}

// gGroups reads a list of OR-groups, each an array of option ids, as
// clauses of kind.
func gGroups(cur *cursor, a *specArena, kind targeting.Kind) []targeting.Clause {
	start := len(a.clauses)
	cur.elements(func() {
		from := len(a.refs)
		cur.elements(func() { a.ref(kind, cur.int()) })
		a.push(a.clause(from))
	})
	return a.list(start)
}

// AppendResponse implements Codec.
func (googleCodec) AppendResponse(dst []byte, size int64) []byte {
	dst = strconv.AppendInt(append(dst, `{"1":{"2":"`...), size, 10)
	return append(dst, `"}}`...)
}

// DecodeResponse implements Codec.
func (g googleCodec) DecodeResponse(body []byte) (int64, error) {
	return g.decodeResponse(&cursor{buf: body})
}

func (googleCodec) decodeResponse(cur *cursor) (int64, error) {
	outer := cur.begin()
	var estimate []byte
	cur.members(gResponseKeys, func(int) {
		cur.members(gResultKeys, func(int) { estimate = cur.str() })
	})
	if err := cur.settle(outer); err != nil {
		return 0, fmt.Errorf("adapi: malformed google response: %w", err)
	}
	v, err := strconv.ParseInt(string(estimate), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("adapi: google estimate %q is not a number: %w", estimate, err)
	}
	return v, nil
}
