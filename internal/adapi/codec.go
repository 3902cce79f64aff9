package adapi

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// Codec translates between targeting specs and one platform's wire dialect.
// The servers and clients share codecs, so a spec surviving an encode/decode
// round trip is a tested invariant. The wire bytes are those encoding/json
// produces for the dialect's documented structures (codec_ref_test.go keeps
// them as the reference), written and read without reflection.
type Codec interface {
	// Platform returns the interface name the codec speaks for.
	Platform() string
	// AppendRequest appends an estimate request in the platform dialect to
	// dst. On error it returns dst unchanged.
	AppendRequest(dst []byte, req platform.EstimateRequest) ([]byte, error)
	// DecodeRequest parses a request body.
	DecodeRequest(body []byte) (platform.EstimateRequest, error)
	// AppendResponse appends a size estimate's response body to dst.
	AppendResponse(dst []byte, size int64) []byte
	// DecodeResponse parses a size estimate from a response body.
	DecodeResponse(body []byte) (int64, error)

	// decodeRequest and decodeResponse decode the next value of a cursor in
	// place, so a batch envelope's slots are read where they lie; a
	// request's clauses are carved from a, shared by the whole envelope.
	decodeRequest(c *cursor, a *specArena) (platform.EstimateRequest, error)
	decodeResponse(c *cursor) (int64, error)
}

// specArena holds the clauses and clause lists of the specs decoded from
// one request body or one batch envelope, back to back in two slices, so
// a batch of specs costs a few allocations, not several per spec. A
// decoder adds a clause's refs, or a list's clauses, then carves them out
// with a full-slice expression (len == cap), so an append to one decoded
// clause or list reallocates and cannot reach its neighbour. Nothing
// writes into a decoded spec (targeting.Clause is immutable), so the
// sharing is safe.
type specArena struct {
	refs    []targeting.Ref
	clauses []targeting.Clause
}

// ref adds one ref to the clause being read.
func (a *specArena) ref(kind targeting.Kind, id int) {
	a.refs = grow(a.refs, targeting.Ref{Kind: kind, ID: id})
}

// push adds clauses to the list being read.
func (a *specArena) push(cls ...targeting.Clause) {
	a.clauses = grow(a.clauses, cls...)
}

// grow appends v to s, at least doubling s's capacity when v does not
// fit. An arena's slices grow past the size where append's own steps
// shrink to 1.25×, and each superseded backing array stays alive under
// the pieces carved from it; doubling keeps them all at about twice the
// final size.
func grow[T any](s []T, v ...T) []T {
	if len(s)+len(v) > cap(s) {
		s = slices.Grow(s, max(len(s), len(v), 8))
	}
	return append(s, v...)
}

// clause carves the refs added since start as one clause, nil if none.
func (a *specArena) clause(start int) targeting.Clause {
	if len(a.refs) == start {
		return nil
	}
	return a.refs[start:len(a.refs):len(a.refs)]
}

// list carves the clauses added since start as one list, nil if none.
func (a *specArena) list(start int) []targeting.Clause {
	if len(a.clauses) == start {
		return nil
	}
	return a.clauses[start:len(a.clauses):len(a.clauses)]
}

// CodecFor returns the codec for a platform interface name.
func CodecFor(name string) (Codec, error) {
	switch name {
	case catalog.PlatformFacebook, catalog.PlatformFacebookRestricted:
		return facebookCodec{platform: name}, nil
	case catalog.PlatformGoogle:
		return googleCodec{}, nil
	case catalog.PlatformLinkedIn:
		return linkedInCodec{}, nil
	default:
		return nil, fmt.Errorf("adapi: no codec for platform %q", name)
	}
}

// ageBounds maps the common age ranges to (min, max) years; max 0 means
// unbounded (55+).
var ageBounds = [][2]int{
	{18, 24},
	{25, 34},
	{35, 54},
	{55, 0},
}

// ageRangeFromBounds recovers the age-range index from (min, max).
func ageRangeFromBounds(min, max int) (int, error) {
	for i, b := range ageBounds {
		if b[0] == min && b[1] == max {
			return i, nil
		}
	}
	return 0, fmt.Errorf("adapi: unknown age bounds [%d, %d]", min, max)
}

// checkAges rejects an age-range id the dialects cannot render.
func checkAges(cl targeting.Clause) error {
	for _, r := range cl {
		if r.ID < 0 || r.ID >= len(ageBounds) {
			return fmt.Errorf("%w: age range %d", targeting.ErrInvalidDemoValue, r.ID)
		}
	}
	return nil
}

// clauseKind returns the one feature kind of a clause. The wire dialects
// physically cannot express empty or kind-mixed clauses (true of the real
// platforms' formats), so those are encoder errors.
func clauseKind(cl targeting.Clause) (targeting.Kind, error) {
	if len(cl) == 0 {
		return 0, targeting.ErrEmptyClause
	}
	for _, r := range cl[1:] {
		if r.Kind != cl[0].Kind {
			return 0, targeting.ErrMixedClause
		}
	}
	return cl[0].Kind, nil
}

// checkClauses runs clauseKind over every clause, in order.
func checkClauses(clauses []targeting.Clause) error {
	for _, cl := range clauses {
		if _, err := clauseKind(cl); err != nil {
			return err
		}
	}
	return nil
}

// checkDemoLists refuses a second gender clause and a second age clause:
// the Facebook and Google dialects carry each kind as one list, and a list
// is an OR, so two clauses would reach the server as their union.
func checkDemoLists(clauses []targeting.Clause, dialect string) error {
	for _, k := range []targeting.Kind{targeting.KindGender, targeting.KindAge} {
		n := 0
		for _, cl := range clauses {
			if cl[0].Kind == k {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("%w: %s supports one %s clause", targeting.ErrTooManyClauses, dialect, k)
		}
	}
	return nil
}

// hasKind reports whether any (single-kind) clause is of kind k.
func hasKind(clauses []targeting.Clause, k targeting.Kind) bool {
	for _, cl := range clauses {
		if cl[0].Kind == k {
			return true
		}
	}
	return false
}

// regionCodes maps population.Region ids to country codes on the wire.
var regionCodes = []string{"US", "CA", "GB", "IN", "BR", "XX"}

// regionCode renders a region id as its wire country code.
func regionCode(id int) (string, error) {
	if id < 0 || id >= len(regionCodes) {
		return "", fmt.Errorf("%w: location %d", targeting.ErrInvalidDemoValue, id)
	}
	return regionCodes[id], nil
}

// regionFromCode parses a wire country code.
func regionFromCode(code []byte) (int, error) {
	for i, c := range regionCodes {
		if c == string(code) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("adapi: unknown country code %q", code)
}

// appendIDs appends a clause's option ids, each plus delta, as elements of
// a JSON array of numbers.
func appendIDs(dst []byte, cl targeting.Clause, delta int) []byte {
	for _, r := range cl {
		dst = strconv.AppendInt(sep(dst), int64(r.ID+delta), 10)
	}
	return dst
}
