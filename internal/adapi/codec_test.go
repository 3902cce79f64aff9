package adapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range []string{
		catalog.PlatformFacebook,
		catalog.PlatformFacebookRestricted,
		catalog.PlatformGoogle,
		catalog.PlatformLinkedIn,
	} {
		c, err := CodecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestCodecForUnknown(t *testing.T) {
	if _, err := CodecFor("myspace"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestCodecPlatformNames(t *testing.T) {
	for _, c := range allCodecs(t) {
		if c.Platform() == "" {
			t.Error("empty codec platform name")
		}
	}
}

// canonicalRoundTrip checks that a spec survives encode → decode up to
// canonical equality.
func canonicalRoundTrip(t *testing.T, c Codec, req platform.EstimateRequest) {
	t.Helper()
	body, err := c.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("%s: encode: %v", c.Platform(), err)
	}
	got, err := c.DecodeRequest(body)
	if err != nil {
		t.Fatalf("%s: decode: %v\nbody: %s", c.Platform(), err, body)
	}
	if targeting.Canonical(got.Spec) != targeting.Canonical(req.Spec) {
		t.Fatalf("%s: spec round trip changed:\n in: %s\nout: %s\nbody: %s",
			c.Platform(), targeting.Canonical(req.Spec), targeting.Canonical(got.Spec), body)
	}
	if got.Objective != req.Objective {
		t.Fatalf("%s: objective round trip: %q -> %q", c.Platform(), req.Objective, got.Objective)
	}
}

func TestRoundTripSimpleSpecs(t *testing.T) {
	specs := []targeting.Spec{
		targeting.Attr(3),
		targeting.And(targeting.Attr(1), targeting.Attr(2)),
		targeting.AnyAttr(4, 5, 6),
		targeting.WithGender(targeting.Attr(1), 0),
		targeting.WithAge(targeting.Attr(1), 0, 2),
		targeting.WithAge(targeting.WithGender(targeting.AnyAttr(7, 8), 1), 3),
		targeting.Excluding(targeting.Attr(1), targeting.AnyAttr(2, 3)),
	}
	for _, c := range allCodecs(t) {
		for _, s := range specs {
			canonicalRoundTrip(t, c, platform.EstimateRequest{Spec: s})
		}
	}
}

func TestRoundTripGoogleTopics(t *testing.T) {
	c, err := CodecFor(catalog.PlatformGoogle)
	if err != nil {
		t.Fatal(err)
	}
	canonicalRoundTrip(t, c, platform.EstimateRequest{
		Spec: targeting.And(targeting.Attr(10), targeting.Topic(20)),
	})
	canonicalRoundTrip(t, c, platform.EstimateRequest{
		Spec:                 targeting.Excluding(targeting.Topic(1), targeting.Topic(2)),
		FrequencyCapPerMonth: 3,
	})
}

func TestGoogleFrequencyCapRoundTrip(t *testing.T) {
	c, _ := CodecFor(catalog.PlatformGoogle)
	body, err := c.AppendRequest(nil, platform.EstimateRequest{
		Spec:                 targeting.Attr(1),
		FrequencyCapPerMonth: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrequencyCapPerMonth != 7 {
		t.Fatalf("cap round trip = %d", got.FrequencyCapPerMonth)
	}
}

func TestObjectiveRoundTrip(t *testing.T) {
	cases := map[string][]platform.Objective{
		catalog.PlatformFacebook: {platform.ObjectiveReach, platform.ObjectiveTraffic},
		catalog.PlatformGoogle:   {platform.ObjectiveBrandAwarenessReach, platform.ObjectiveTraffic},
		catalog.PlatformLinkedIn: {platform.ObjectiveBrandAwareness, platform.ObjectiveTraffic},
	}
	for name, objs := range cases {
		c, _ := CodecFor(name)
		for _, o := range objs {
			canonicalRoundTrip(t, c, platform.EstimateRequest{Spec: targeting.Attr(1), Objective: o})
		}
		// Unsupported objective is an encoder error.
		if _, err := c.AppendRequest(nil, platform.EstimateRequest{Spec: targeting.Attr(1), Objective: "dance"}); !errors.Is(err, platform.ErrUnknownObjective) {
			t.Errorf("%s: want ErrUnknownObjective, got %v", name, err)
		}
	}
}

func TestEncodeRejectsMixedClause(t *testing.T) {
	mixed := targeting.Spec{Include: []targeting.Clause{{
		{Kind: targeting.KindAttribute, ID: 1},
		{Kind: targeting.KindGender, ID: 0},
	}}}
	for _, c := range allCodecs(t) {
		if _, err := c.AppendRequest(nil, platform.EstimateRequest{Spec: mixed}); !errors.Is(err, targeting.ErrMixedClause) {
			t.Errorf("%s: want ErrMixedClause, got %v", c.Platform(), err)
		}
	}
}

func TestEncodeRejectsEmptyClause(t *testing.T) {
	empty := targeting.Spec{Include: []targeting.Clause{{}}}
	for _, c := range allCodecs(t) {
		if _, err := c.AppendRequest(nil, platform.EstimateRequest{Spec: empty}); !errors.Is(err, targeting.ErrEmptyClause) {
			t.Errorf("%s: want ErrEmptyClause, got %v", c.Platform(), err)
		}
	}
}

func TestFacebookRejectsTopics(t *testing.T) {
	c, _ := CodecFor(catalog.PlatformFacebook)
	if _, err := c.AppendRequest(nil, platform.EstimateRequest{Spec: targeting.Topic(1)}); !errors.Is(err, targeting.ErrKindForbidden) {
		t.Fatalf("want ErrKindForbidden, got %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		for _, v := range []int64{0, 40, 300, 1000, 46_000, 5_200_000, 2_400_000_000} {
			body := c.AppendResponse(nil, v)
			got, err := c.DecodeResponse(body)
			if err != nil {
				t.Fatalf("%s: decode response: %v", c.Platform(), err)
			}
			if got != v {
				t.Fatalf("%s: response round trip %d -> %d", c.Platform(), v, got)
			}
		}
	}
}

func TestGoogleWireIsObfuscated(t *testing.T) {
	// The Google dialect must not leak readable field names: all object
	// keys are numeric strings, and the estimate travels as a string.
	c, _ := CodecFor(catalog.PlatformGoogle)
	body, err := c.AppendRequest(nil, platform.EstimateRequest{
		Spec:                 targeting.WithGender(targeting.And(targeting.Attr(5), targeting.Topic(9)), 1),
		FrequencyCapPerMonth: 1,
		Objective:            platform.ObjectiveBrandAwarenessReach,
	})
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(body, &generic); err != nil {
		t.Fatal(err)
	}
	assertNumericKeys(t, generic)
	for _, word := range []string{"targeting", "attribute", "topic", "gender", "age", "spec"} {
		if strings.Contains(strings.ToLower(string(body)), word) {
			t.Fatalf("google wire leaks %q: %s", word, body)
		}
	}
	resp := c.AppendResponse(nil, 123_000)
	var rGeneric map[string]any
	if err := json.Unmarshal(resp, &rGeneric); err != nil {
		t.Fatal(err)
	}
	assertNumericKeys(t, rGeneric)
	if !strings.Contains(string(resp), `"123000"`) {
		t.Fatalf("google estimate should travel as a string: %s", resp)
	}
}

// assertNumericKeys walks a decoded JSON tree checking every object key is
// a decimal number.
func assertNumericKeys(t *testing.T, v any) {
	t.Helper()
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			for _, r := range k {
				if r < '0' || r > '9' {
					t.Fatalf("non-numeric key %q", k)
				}
			}
			assertNumericKeys(t, sub)
		}
	case []any:
		for _, sub := range x {
			assertNumericKeys(t, sub)
		}
	}
}

func TestFacebookWireShape(t *testing.T) {
	// Spot-check the Facebook dialect against its documented field names.
	c, _ := CodecFor(catalog.PlatformFacebook)
	body, err := c.AppendRequest(nil, platform.EstimateRequest{
		Spec:      targeting.WithGender(targeting.And(targeting.Attr(3), targeting.AnyAttr(4, 5)), 0),
		Objective: platform.ObjectiveReach,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	ts, ok := m["targeting_spec"].(map[string]any)
	if !ok {
		t.Fatalf("no targeting_spec: %s", body)
	}
	flex, ok := ts["flexible_spec"].([]any)
	if !ok || len(flex) != 2 {
		t.Fatalf("flexible_spec wrong: %s", body)
	}
	genders, ok := ts["genders"].([]any)
	if !ok || len(genders) != 1 || genders[0].(float64) != 1 {
		t.Fatalf("genders wrong (male must encode as 1): %s", body)
	}
	if m["optimization_goal"] != "REACH" {
		t.Fatalf("optimization_goal wrong: %s", body)
	}
}

func TestLinkedInWireShape(t *testing.T) {
	// LinkedIn demographics ride as ordinary facets in the and-of-ors tree.
	c, _ := CodecFor(catalog.PlatformLinkedIn)
	body, err := c.AppendRequest(nil, platform.EstimateRequest{
		Spec: targeting.WithAge(targeting.Attr(7), 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	for _, want := range []string{`"and"`, `"or"`, "urn:li:attribute:7", "urn:li:ageRange:(55,2147483647)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("linkedin wire missing %q: %s", want, s)
		}
	}
}

// TestRandomSpecRoundTripProperty: every random spec an encoder accepts
// decodes to the same canonical spec, and every spec it refuses fails with
// a typed error. Specs draw attribute, gender, age and location clauses,
// some kinds twice, so an AND of two gender (or age) clauses that a dialect
// carries as one OR-list cannot come back as their OR.
func TestRandomSpecRoundTripProperty(t *testing.T) {
	kinds := []targeting.Kind{targeting.KindAttribute, targeting.KindAttribute,
		targeting.KindGender, targeting.KindAge, targeting.KindLocation}
	ids := map[targeting.Kind]int{
		targeting.KindAttribute: 200, targeting.KindGender: 2,
		targeting.KindAge: len(ageBounds), targeting.KindLocation: len(regionCodes),
	}
	rng := xrand.New(20261020)
	refused := 0
	for n := 0; n < 400; n++ {
		var spec targeting.Spec
		for i, nClauses := 0, 1+rng.Intn(4); i < nClauses; i++ {
			kind := kinds[rng.Intn(len(kinds))]
			cl := make(targeting.Clause, 1+rng.Intn(2))
			for j := range cl {
				cl[j] = targeting.Ref{Kind: kind, ID: rng.Intn(ids[kind])}
			}
			spec.Include = append(spec.Include, cl)
		}
		req := platform.EstimateRequest{Spec: spec}
		for _, c := range allCodecs(t) {
			body, err := c.AppendRequest(nil, req)
			if err != nil {
				refused++
				if !slices.ContainsFunc(encodeSentinels, func(s error) bool { return errors.Is(err, s) }) {
					t.Fatalf("%s %s: untyped encoder error %v", c.Platform(), targeting.Canonical(spec), err)
				}
				continue
			}
			got, err := c.DecodeRequest(body)
			if err != nil || targeting.Canonical(got.Spec) != targeting.Canonical(spec) {
				t.Fatalf("%s: %s came back as %s (%v)\nbody: %s",
					c.Platform(), targeting.Canonical(spec), targeting.Canonical(got.Spec), err, body)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no encoder refused a spec: the draw never repeats a demographic kind")
	}
}

func TestAgeRangeFromBoundsUnknown(t *testing.T) {
	if _, err := ageRangeFromBounds(19, 23); err == nil {
		t.Fatal("unknown bounds accepted")
	}
}

func TestErrorCodeMapping(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range codeByError {
		if seen[e.code] {
			t.Errorf("wire code %s listed twice", e.code)
		}
		seen[e.code] = true
		code := errorCode(e.err)
		if code == codeInternal {
			t.Errorf("error %v classified as internal", e.err)
			continue
		}
		back := errorFromCode(code, "x")
		if !errors.Is(back, e.err) {
			t.Errorf("round trip lost error identity for %v (code %s)", e.err, code)
		}
	}
	if errorCode(errors.New("boom")) != codeInternal {
		t.Error("unknown errors must classify as internal")
	}
}

func TestSplitClauses(t *testing.T) {
	spec := targeting.WithGender(targeting.And(targeting.Attr(1), targeting.Topic(2)), 0)
	byKind, err := splitClauses(spec.Include)
	if err != nil {
		t.Fatal(err)
	}
	want := map[targeting.Kind]int{
		targeting.KindAttribute: 1,
		targeting.KindTopic:     1,
		targeting.KindGender:    1,
	}
	got := map[targeting.Kind]int{}
	for k, cls := range byKind {
		got[k] = len(cls)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitClauses = %v, want %v", got, want)
	}
}

func TestLocationRoundTrip(t *testing.T) {
	// The auditor's US scope must survive every dialect: FB geo_locations,
	// Google's obfuscated geo groups, LinkedIn's locations facet.
	spec := targeting.WithLocation(targeting.Attr(3), 0, 2) // US or GB
	for _, c := range allCodecs(t) {
		canonicalRoundTrip(t, c, platform.EstimateRequest{Spec: spec})
	}
	// Unknown region ids are encoder errors on the dialects that carry
	// country-code strings; Google's numeric dialect passes ids through and
	// the server rejects them at validation.
	bad := targeting.WithLocation(targeting.Attr(3), 99)
	for _, c := range allCodecs(t) {
		if c.Platform() == catalog.PlatformGoogle {
			continue
		}
		if _, err := c.AppendRequest(nil, platform.EstimateRequest{Spec: bad}); err == nil {
			t.Errorf("%s: unknown region accepted", c.Platform())
		}
	}
}

func TestRegionCodes(t *testing.T) {
	for id := 0; id < len(regionCodes); id++ {
		code, err := regionCode(id)
		if err != nil {
			t.Fatal(err)
		}
		back, err := regionFromCode([]byte(code))
		if err != nil || back != id {
			t.Fatalf("region %d -> %q -> %d (%v)", id, code, back, err)
		}
	}
	if _, err := regionFromCode([]byte("ZZ")); err == nil {
		t.Fatal("unknown code accepted")
	}
}

func TestGooglePlacementRoundTrip(t *testing.T) {
	c, _ := CodecFor(catalog.PlatformGoogle)
	canonicalRoundTrip(t, c, platform.EstimateRequest{
		Spec: targeting.And(targeting.Placement(3), targeting.Attr(1)),
	})
}

func TestWireGolden(t *testing.T) {
	// Golden wire bodies: these are the protocol. Changing them silently
	// would break interoperability between old servers and new clients, so
	// any intentional change must update this test.
	req := platform.EstimateRequest{
		Spec: targeting.WithLocation(
			targeting.WithGender(targeting.And(targeting.AnyAttr(1, 2), targeting.Attr(3)), 0), 0),
	}
	golden := map[string]string{
		catalog.PlatformFacebook: `{"targeting_spec":{"flexible_spec":[{"interests":[{"id":1},{"id":2}]},{"interests":[{"id":3}]}],"genders":[1],"geo_locations":{"countries":["US"]}}}`,
		catalog.PlatformGoogle:   `{"1":{"2":{"3":[[1,2],[3]],"6":[1],"8":[[0]]}}}`,
		catalog.PlatformLinkedIn: `{"include":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:1","urn:li:attribute:2"]}},{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:3"]}},{"or":{"urn:li:adTargetingFacet:genders":["urn:li:gender:MALE"]}},{"or":{"urn:li:adTargetingFacet:locations":["urn:li:geo:US"]}}]}}`,
	}
	for name, want := range golden {
		c, err := CodecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := c.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.TrimSpace(string(body)); got != want {
			t.Errorf("%s wire body changed:\n got: %s\nwant: %s", name, got, want)
		}
	}

	responses := map[string]string{
		catalog.PlatformFacebook: `{"data":[{"estimate_mau":46000}]}`,
		catalog.PlatformGoogle:   `{"1":{"2":"46000"}}`,
		catalog.PlatformLinkedIn: `{"elements":[{"total":46000}]}`,
	}
	for name, want := range responses {
		c, _ := CodecFor(name)
		if got := string(c.AppendResponse(nil, 46000)); got != want {
			t.Errorf("%s response body changed:\n got: %s\nwant: %s", name, got, want)
		}
	}

	// The measure-batch envelopes: two request slots, and a size slot plus
	// an error slot whose message encoding/json escapes.
	fb, _ := CodecFor(catalog.PlatformFacebook)
	specs := []targeting.Spec{targeting.Attr(1), targeting.WithGender(targeting.AnyAttr(2, 3), 1)}
	reqEnv, _ := encodeBatch(fb, specs, make([]core.BatchResult, len(specs)))
	const wantReq = `{"requests":[{"targeting_spec":{"flexible_spec":[{"interests":[{"id":1}]}]}},{"targeting_spec":{"flexible_spec":[{"interests":[{"id":2},{"id":3}]}],"genders":[2]}}]}`
	if string(reqEnv) != wantReq {
		t.Errorf("request envelope changed:\n got: %s\nwant: %s", reqEnv, wantReq)
	}
	slotErr := fmt.Errorf("%w: bad \"quote\" \\ <tag> é", targeting.ErrUnknownOption)
	respEnv := appendResults(nil, fb, []error{nil, nil}, []platform.Estimate{{Size: 1000}, {Err: slotErr}})
	const wantResp = `{"results":[{"body":{"data":[{"estimate_mau":1000}]}},{"error":{"code":"unknown_option","message":"targeting: unknown targeting option: bad \"quote\" \\ \u003ctag\u003e é"}}]}` + "\n"
	if string(respEnv) != wantResp {
		t.Errorf("results envelope changed:\n got: %s\nwant: %s", respEnv, wantResp)
	}
}

// TestLinkedInFacetOrder is the regression test for or-terms that name two
// facets: their refs are read in document order, so validation meets the
// same first error every time, decoded directly and over POST
// /linkedin/measure alike.
func TestLinkedInFacetOrder(t *testing.T) {
	const body = `{"include":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:999999"],"urn:li:adTargetingFacet:genders":["urn:li:gender:MALE"]}},{"or":{"urn:li:adTargetingFacet:locations":["urn:li:geo:US"]}}]}}`
	ts, d := startServer(t, ServerOptions{Metrics: obs.NewRegistry()})
	p, err := d.ByName(catalog.PlatformLinkedIn)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := CodecFor(catalog.PlatformLinkedIn)
	codes := map[string]int{}
	for i := 0; i < 200; i++ {
		req, err := c.DecodeRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		codes[errorCode(p.MeasureManyCtx(context.Background(), []platform.EstimateRequest{req})[0].Err)]++
	}
	if len(codes) != 1 {
		t.Fatalf("direct decode and measure gave codes %v, want one", codes)
	}
	wire := map[string]int{}
	for i := 0; i < 200; i++ {
		resp, err := http.Post(ts.URL+"/linkedin/measure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, decode %v", resp.StatusCode, err)
		}
		wire[env.Error.Code]++
	}
	if len(wire) != 1 || wire[firstKey(codes)] != 200 {
		t.Fatalf("POST /linkedin/measure gave codes %v, direct %v", wire, codes)
	}
}

func firstKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}
