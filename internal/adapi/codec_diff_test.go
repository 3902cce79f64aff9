package adapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// The reflection-free codecs against the encoding/json reference
// (codec_ref_test.go): every encoder writes the reference's bytes or its
// error, and a decoder accepts nothing the reference refuses and decodes
// nothing to another value. It refuses only what encoding/json stores
// leniently: a repeated key, or a key matching a known one only
// case-insensitively (errAmbiguousKey).

// dialects names one interface per wire dialect.
var dialects = []string{catalog.PlatformFacebook, catalog.PlatformGoogle, catalog.PlatformLinkedIn}

// randomRequest draws a request that reaches every encoder branch: valid
// specs of every kind, and invalid ones — topics on Facebook, gender, age
// and location ids out of range, negative ids, a kind past the last, empty
// and mixed clauses, exclusions of every kind — under every objective
// (and an unknown one) and a spread of frequency caps.
func randomRequest(rng *xrand.Rand) platform.EstimateRequest {
	objectives := []platform.Objective{"", platform.ObjectiveReach, platform.ObjectiveBrandAwarenessReach,
		platform.ObjectiveBrandAwareness, platform.ObjectiveTraffic, "dance"}
	caps := []int{0, 0, 1, 7, 30, 31, -1}
	req := platform.EstimateRequest{
		Objective:            objectives[rng.Intn(len(objectives))],
		FrequencyCapPerMonth: caps[rng.Intn(len(caps))],
	}
	req.Spec.Include = randomClauses(rng, rng.Intn(5))
	if rng.Intn(3) == 0 {
		req.Spec.Exclude = randomClauses(rng, 1+rng.Intn(2))
	}
	return req
}

func randomClauses(rng *xrand.Rand, n int) []targeting.Clause {
	var out []targeting.Clause
	for i := 0; i < n; i++ {
		width := 1 + rng.Intn(3)
		if rng.Intn(25) == 0 {
			width = 0
		}
		kind := randomKind(rng)
		cl := make(targeting.Clause, width)
		for j := range cl {
			k := kind
			if rng.Intn(25) == 0 {
				k = randomKind(rng)
			}
			cl[j] = targeting.Ref{Kind: k, ID: randomID(rng, k)}
		}
		out = append(out, cl)
	}
	return out
}

// randomKind favours attributes and reaches one kind past the last.
func randomKind(rng *xrand.Rand) targeting.Kind {
	if rng.Intn(3) == 0 {
		return targeting.KindAttribute
	}
	return targeting.Kind(rng.Intn(int(targeting.KindPlacement) + 2))
}

func randomID(rng *xrand.Rand, k targeting.Kind) int {
	if rng.Intn(40) == 0 {
		return -1 - rng.Intn(3)
	}
	switch k {
	case targeting.KindGender:
		return rng.Intn(3) // 2 is out of range
	case targeting.KindAge:
		return rng.Intn(5) // 4 is out of range
	case targeting.KindLocation:
		return rng.Intn(7) // 6 is out of range
	}
	return rng.Intn(1 << 12)
}

// encodeSentinels are the typed errors an encoder returns.
var encodeSentinels = []error{
	targeting.ErrEmptyClause, targeting.ErrMixedClause, targeting.ErrKindForbidden,
	targeting.ErrInvalidDemoValue, targeting.ErrTooManyClauses, platform.ErrUnknownObjective,
}

// sameError reports how two errors differ, or "" when both are nil or
// both carry the same message and the same sentinels.
func sameError(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("error %v, reference %v", got, want)
	}
	if got == nil {
		return ""
	}
	if got.Error() != want.Error() {
		return fmt.Sprintf("error %q, reference %q", got, want)
	}
	for _, s := range encodeSentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return fmt.Sprintf("error %v: errors.Is(%v) differs from the reference", got, s)
		}
	}
	return ""
}

// TestEncodersMatchReference: for 12,000 random requests per dialect,
// AppendRequest appends exactly the reference encoder's bytes, or returns
// the reference's error and leaves dst as it was.
func TestEncodersMatchReference(t *testing.T) {
	rng := xrand.New(20261019)
	for _, name := range dialects {
		c, err := CodecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := refCodecFor(name)
		valid := 0
		for i := 0; i < 12000; i++ {
			req := randomRequest(rng)
			want, wantErr := ref.EncodeRequest(req)
			got, err := c.AppendRequest([]byte("prefix"), req)
			if d := sameError(err, wantErr); d != "" {
				t.Fatalf("%s %+v: %s", name, req, d)
			}
			if err != nil {
				if string(got) != "prefix" {
					t.Fatalf("%s %+v: failed append changed dst to %q", name, req, got)
				}
				continue
			}
			valid++
			if string(got) != "prefix"+string(want) {
				t.Fatalf("%s %+v:\n got %s\nwant prefix%s", name, req, got, want)
			}
		}
		// Both halves of the property are exercised.
		if valid < 1500 || valid > 10500 {
			t.Errorf("%s: %d of 12000 requests encodable", name, valid)
		}
	}
}

// responseSizes are FuzzDecodeResponse's boundary estimates plus the int64
// extremes.
var responseSizes = []int64{0, 40, 299, 300, 999, 1000, 1049, 1050, 100000, 104999, 1 << 31, -7, math.MaxInt64, math.MinInt64}

func TestResponsesMatchReference(t *testing.T) {
	for _, name := range dialects {
		c, _ := CodecFor(name)
		ref := refCodecFor(name)
		for _, v := range responseSizes {
			want, err := ref.EncodeResponse(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.AppendResponse(nil, v); string(got) != string(want) {
				t.Errorf("%s %d:\n got %s\nwant %s", name, v, got, want)
			}
			if got, err := c.DecodeResponse(want); err != nil || got != v {
				t.Errorf("%s: decoding %s = %d, %v", name, want, got, err)
			}
		}
	}
}

// TestBatchEnvelopesMatchReference: both measure-batch envelopes are the
// bytes encoding/json wrote for them, including error slots whose messages
// need escaping.
func TestBatchEnvelopesMatchReference(t *testing.T) {
	rng := xrand.New(99)
	for _, name := range dialects {
		c, _ := CodecFor(name)
		ref := refCodecFor(name)
		specs := make([]targeting.Spec, 80)
		for i := range specs {
			specs[i] = randomRequest(rng).Spec
		}
		out := make([]core.BatchResult, len(specs))
		body, slots := encodeBatch(c, specs, out)
		env := batchRequest{Requests: []json.RawMessage{}}
		for i, spec := range specs {
			b, err := ref.EncodeRequest(platform.EstimateRequest{Spec: spec})
			if d := sameError(out[i].Err, err); d != "" {
				t.Fatalf("%s spec %d: %s", name, i, d)
			}
			if err == nil {
				env.Requests = append(env.Requests, b)
			}
		}
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) || len(slots) != len(env.Requests) {
			t.Fatalf("%s request envelope (%d slots):\n got %s\nwant %s", name, len(slots), body, want)
		}

		escaped := fmt.Errorf("%w: %q \\ <b>&é\u2028\x01", targeting.ErrUnknownOption, `"x"`)
		errs := []error{nil, errors.New("adapi: unknown country code \"<ZZ>\""), nil, fmt.Errorf("%w: %q", platform.ErrUnknownObjective, "é"), nil}
		sizes := []platform.Estimate{{Size: 1000}, {Err: escaped}, {Size: 46_000}}
		var resp batchResponse
		next := sizes
		for _, err := range errs {
			switch {
			case err != nil:
				resp.Results = append(resp.Results, slotError(errorCodeOrMalformed(err), err.Error()))
			case next[0].Err != nil:
				resp.Results = append(resp.Results, slotError(errorCode(next[0].Err), next[0].Err.Error()))
				next = next[1:]
			default:
				b, _ := ref.EncodeResponse(next[0].Size)
				resp.Results = append(resp.Results, batchSlot{Body: b})
				next = next[1:]
			}
		}
		if got, want := appendResults(nil, c, errs, sizes), refEncodeBatchResponse(resp); string(got) != string(want) {
			t.Fatalf("%s response envelope:\n got %s\nwant %s", name, got, want)
		}
	}
}

// variantBodies are hand-written request bodies both decoders must read
// alike: whitespace, reordered keys, unknown fields, escaped strings, null
// optional blocks, null array elements, and semantic errors.
var variantBodies = map[string][]string{
	catalog.PlatformFacebook: {
		" {\n\t\"targeting_spec\" : { \"genders\" : [ 1 , 2 ] } }\r\n",
		`{"optimization_goal":"REACH","targeting_spec":{"geo_locations":{"countries":["US","GB"]},"flexible_spec":[{"interests":[{"id":3}]}]}}`,
		`{"targeting_spec":{"flexible_spec":[{"interests":[{"id":3,"name":"x"}],"extra":[1,{"a":null}]}],"unknown":true},"other":{"n":[1.5e3,"s",-0.0,true,false]}}`,
		`{"targeting_spec":{"geo_locations":{"countries":["\u0055S","G\u0042"]}},"optimization_goal":"LINK\u005fCLICKS"}`,
		`{"targeting_spec":{"exclusions":null,"geo_locations":null,"genders":null,"flexible_spec":null,"age_ranges":null},"optimization_goal":null}`,
		`{"targeting_spec":null}`,
		`null`,
		`{"targeting_spec":{"exclusions":{},"geo_locations":{}}}`,
		`{"targeting_spec":{"age_ranges":[{"min":55},{"min":18,"max":24,"note":"x"}],"custom_audiences":[[{"id":2}],[]]}}`,
		`{"targeting_spec":{"flexible_spec":[null,{"interests":[null,{"id":-0}]}],"genders":[null]}}`,
		`{"targeting_spec":{"age_ranges":[{"min":19,"max":23}]}}`,
		`{"targeting_spec":{"geo_locations":{"countries":["ZZ"]}},"optimization_goal":"DANCE"}`,
		`{"optimization_goal":"REACH\u00e9"}`,
		`{"targeting_spec":{"genders":[1.0]}}`,
		`{"targeting_spec":{"genders":["1"]}}`,
		`{"targeting_spec":[]}`,
		`{"\u0074argeting_spec":{"genders":[2]}}`,
	},
	catalog.PlatformGoogle: {
		` { "1" : { "2" : { "3" : [ [ 1 , 2 ] , [ 3 ] ] , "6" : [ 1 ] , "8" : [ [ 0 ] ] } } } `,
		`{"1":{"10":2,"5":3,"2":{"12":[[4]],"9":{"4":[[2]],"3":[[1]]},"7":[[55,0],[18,24,99,{"x":[]}]],"11":[[1,2]],"4":[[7]]}}}`,
		`{"1":{"2":{"3":[[1]],"99":"x"},"7":{}},"2":null}`,
		`{"1":{"2":{"7":[[18]]}}}`,
		`{"1":{"2":{"7":[[]]}}}`,
		`{"1":{"2":null,"5":null,"10":null}}`,
		`{"\u0031":{"2":{"3":[[5]],"9":null}}}`,
		`{"1":{"2":{"3":[null,[null]],"6":[null]}}}`,
		`{"1":{"10":3}}`,
		`{"1":{"5":1e1}}`,
		`{"1":{"5":9223372036854775808}}`,
		`{"1":{"2":{"3":[[-9223372036854775808]]}}}`,
	},
	catalog.PlatformLinkedIn: {
		` { "include" : { "and" : [ { "or" : { "urn:li:adTargetingFacet:attributes" : [ "urn:li:attribute:1" ] } } ] } } `,
		`{"objectiveType":"WEBSITE_VISIT","exclude":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:4"]}}]},"include":{"and":[{"or":{"urn:li:adTargetingFacet:genders":["urn:li:gender:FEMALE"]}}]}}`,
		`{"include":{"and":[{"or":{"urn:li:adTargetingFacet:locations":["urn:li:geo:\u0055S"]},"x":1}],"y":[]},"z":null}`,
		`{"include":null,"exclude":null,"objectiveType":null}`,
		`{"include":{"and":[{"or":null},{}]}}`,
		`{"include":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:1"],"urn:li:adTargetingFacet:genders":["urn:li:gender:MALE"]}}]}}`,
		`{"include":{"and":[{"or":{"bogus":[],"urn:li:adTargetingFacet:ageRanges":["urn:li:ageRange:(55,2147483647)"]}}]}}`,
		`{"include":{"and":[{"or":{"urn:li:adTargetingFacet:audienceMatchingSegments":["urn:li:matchedAudience:+7"]}}]}}`,
		`{"include":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:x"]}}]}}`,
		`{"include":{"and":[{"or":{"bogus":["urn:li:attribute:1"]}}]}}`,
		`{"include":{"and":[{"or":{"URN:LI:ADTARGETINGFACET:ATTRIBUTES":[]}}]}}`,
		`{"include":{"and":[null]},"objectiveType":"BRAND_AWARENESS"}`,
		`{"objectiveType":"brand_awareness"}`,
	},
}

// syntaxBodies are texts that are not JSON, each refused by both decoders
// of every dialect, plus the nesting bound: 10,000 levels pass and 10,001
// do not, as in encoding/json.
var syntaxBodies = []string{
	``, ` `, `{`, `{"x"`, `{"x":`, `{"x" 1}`, `{"x":1,}`, `{"x":[1,]}`, `{,}`, `{} x`, `{}}`,
	`{"x":1e}`, `{"x":01}`, `{"x":-}`, `{"x":1.}`, `{"x":.5}`, `{"x":+1}`, `{"x":tru}`, `{"x":nul}`,
	`{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"\u12G4"}`, "{\"x\":\"a\x01\"}", `{"x":"abc`, `{"x":"a\`,
	"\xef\xbb\xbf{}", "{\"x\":1}\x00", `{'x':1}`, `{x:1}`,
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// ambiguousBodies are bodies encoding/json accepts leniently and the
// codecs refuse with errAmbiguousKey: repeated keys and keys matching a
// known one only case-insensitively.
var ambiguousBodies = map[string][]string{
	catalog.PlatformFacebook: {
		`{"Targeting_Spec":{"genders":[1]}}`,
		`{"targeting_spec":{"genders":[1],"genders":[2]}}`,
		`{"targeting_spec":{"geo_locations":{"countrieſ":["US"]}}}`,
		`{"targeting_spec":{},"targeting_spec":{}}`,
	},
	catalog.PlatformGoogle: {
		`{"1":{"2":{"3":[[1]]},"2":{"4":[[1]]}}}`,
		`{"1":{"5":3,"5":4}}`,
	},
	catalog.PlatformLinkedIn: {
		`{"INCLUDE":{"and":[]}}`,
		`{"include":{"And":[]}}`,
		`{"include":{"and":[{"or":{"urn:li:adTargetingFacet:attributes":["urn:li:attribute:1"],"urn:li:adTargetingFacet:attributes":["urn:li:attribute:2"]}}]}}`,
	},
}

// sameRequest reports how a decoded request differs from the reference's,
// or a list or clause of it whose capacity exceeds its length: decoders
// carve them from an arena the whole body or envelope shares, each with
// len == cap, so that no append to one can reach its neighbour.
func sameRequest(got, want platform.EstimateRequest) string {
	for _, list := range [][]targeting.Clause{got.Spec.Include, got.Spec.Exclude} {
		if len(list) != cap(list) {
			return fmt.Sprintf("clause list len %d cap %d", len(list), cap(list))
		}
		for _, cl := range list {
			if len(cl) != cap(cl) {
				return fmt.Sprintf("clause %v len %d cap %d", cl, len(cl), cap(cl))
			}
		}
	}
	if g, w := targeting.Canonical(got.Spec), targeting.Canonical(want.Spec); g != w {
		return fmt.Sprintf("spec %s, reference %s", g, w)
	}
	if got.Objective != want.Objective || got.FrequencyCapPerMonth != want.FrequencyCapPerMonth {
		return fmt.Sprintf("objective %q cap %d, reference %q cap %d",
			got.Objective, got.FrequencyCapPerMonth, want.Objective, want.FrequencyCapPerMonth)
	}
	return ""
}

// checkRequestVsReference holds one body's request decode to the
// reference: accepted only with the reference's result, refused only where
// the reference refuses too or for an ambiguous key.
func checkRequestVsReference(t *testing.T, name string, body []byte) (accepted bool) {
	t.Helper()
	c, _ := CodecFor(name)
	got, err := c.DecodeRequest(body)
	want, wantErr := refCodecFor(name).DecodeRequest(body)
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("%s %q: accepted, reference refuses: %v", name, body, wantErr)
	case err == nil:
		if d := sameRequest(got, want); d != "" {
			t.Fatalf("%s %q: %s", name, body, d)
		}
	case wantErr == nil && !errors.Is(err, errAmbiguousKey):
		t.Fatalf("%s %q: refused (%v), reference accepts", name, body, err)
	}
	return err == nil
}

// checkResponseVsReference is checkRequestVsReference for response bodies.
func checkResponseVsReference(t *testing.T, name string, body []byte) {
	t.Helper()
	c, _ := CodecFor(name)
	got, err := c.DecodeResponse(body)
	want, wantErr := refCodecFor(name).DecodeResponse(body)
	switch {
	case err == nil && (wantErr != nil || got != want):
		t.Fatalf("%s response %q: %d, reference %d (%v)", name, body, got, want, wantErr)
	case err != nil && wantErr == nil && !errors.Is(err, errAmbiguousKey):
		t.Fatalf("%s response %q: refused (%v), reference reads %d", name, body, err, want)
	}
}

// TestDecodersMatchReference: every encoder output, seedBodies and the
// hand-written variants decode as the reference decodes them, error codes
// included, and the ambiguous bodies are refused.
func TestDecodersMatchReference(t *testing.T) {
	rng := xrand.New(5)
	for _, name := range dialects {
		c, _ := CodecFor(name)
		ref := refCodecFor(name)
		bodies := seedBodies(t, name)
		for i := 0; i < 3000; i++ {
			if body, err := c.AppendRequest(nil, randomRequest(rng)); err == nil {
				bodies = append(bodies, body)
			}
		}
		for _, v := range append(variantBodies[name], syntaxBodies...) {
			bodies = append(bodies, []byte(v))
		}
		for _, body := range bodies {
			got, err := c.DecodeRequest(body)
			want, wantErr := ref.DecodeRequest(body)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s %q: error %v, reference %v", name, body, err, wantErr)
			}
			if err != nil {
				if g, w := errorCodeOrMalformed(err), errorCodeOrMalformed(wantErr); g != w {
					t.Errorf("%s %q: code %s (%v), reference %s (%v)", name, body, g, err, w, wantErr)
				}
				continue
			}
			if d := sameRequest(got, want); d != "" {
				t.Fatalf("%s %q: %s", name, body, d)
			}
		}
		for _, b := range ambiguousBodies[name] {
			if _, err := ref.DecodeRequest([]byte(b)); err != nil {
				t.Fatalf("%s %q: reference refuses: %v", name, b, err)
			}
			if _, err := c.DecodeRequest([]byte(b)); !errors.Is(err, errAmbiguousKey) {
				t.Errorf("%s %q: err %v, want errAmbiguousKey", name, b, err)
			}
		}
		for _, v := range responseSizes {
			body, _ := ref.EncodeResponse(v)
			checkResponseVsReference(t, name, body)
		}
	}
}

// fuzzVsReference drives one dialect's request and response decoders
// against the reference over the same bytes.
func fuzzVsReference(f *testing.F, name string) {
	for _, s := range seedBodies(f, name) {
		f.Add(s)
	}
	for _, s := range append(variantBodies[name], ambiguousBodies[name]...) {
		f.Add([]byte(s))
	}
	ref := refCodecFor(name)
	for _, v := range responseSizes {
		body, _ := ref.EncodeResponse(v)
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestVsReference(t, name, body)
		checkResponseVsReference(t, name, body)
	})
}

func FuzzFacebookVsReference(f *testing.F) { fuzzVsReference(f, catalog.PlatformFacebook) }
func FuzzGoogleVsReference(f *testing.F)   { fuzzVsReference(f, catalog.PlatformGoogle) }
func FuzzLinkedInVsReference(f *testing.F) { fuzzVsReference(f, catalog.PlatformLinkedIn) }

// FuzzBatchVsReference holds both measure-batch envelope decoders to the
// reference: the server's (decodeBatch, against json.Unmarshal into
// batchRequest and a reference decode per slot) and the client's
// (decodeResults, against batchResponse and a reference response decode
// per slot), for every dialect.
func FuzzBatchVsReference(f *testing.F) {
	for _, name := range dialects {
		c, _ := CodecFor(name)
		ref := refCodecFor(name)
		var env batchRequest
		for _, body := range seedBodies(f, name) {
			env.Requests = append(env.Requests, body)
		}
		if b, err := json.Marshal(env); err == nil {
			f.Add(b)
		}
		errs := []error{nil, errors.New("adapi: bad \"x\""), nil}
		sizes := []platform.Estimate{{Size: 1000}, {Err: targeting.ErrUnknownOption}}
		f.Add(appendResults(nil, c, errs, sizes))
		body, _ := ref.EncodeResponse(300)
		f.Add([]byte(`{"results":[{"body":` + string(body) + `,"error":null},null,{"error":{}},{"body":null},{"x":1}]}`))
	}
	f.Add([]byte(`{"requests":[{}, [], null, 7]}`))
	f.Add([]byte(`{"requests":null,"Requests":[]}`))
	f.Add([]byte(`{"results":[{"body":{"data":[{"estimate_mau":1}]},"body":{}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, name := range dialects {
			checkBatchRequestVsReference(t, name, body)
			checkBatchResponseVsReference(t, name, body)
		}
	})
}

func checkBatchRequestVsReference(t *testing.T, name string, body []byte) {
	c, _ := CodecFor(name)
	ref := refCodecFor(name)
	reqs, errs, err := decodeBatch(c, body)
	var env batchRequest
	wantErr := json.Unmarshal(body, &env)
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("%s envelope %q accepted, reference refuses: %v", name, body, wantErr)
	case err != nil:
		if wantErr == nil && !errors.Is(err, errAmbiguousKey) {
			t.Fatalf("%s envelope %q refused (%v), reference accepts", name, body, err)
		}
		return
	case len(errs) != len(env.Requests):
		t.Fatalf("%s envelope %q: %d slots, reference %d", name, body, len(errs), len(env.Requests))
	}
	for i, raw := range env.Requests {
		want, wantErr := ref.DecodeRequest(raw)
		switch {
		case errs[i] == nil && wantErr != nil:
			t.Fatalf("%s envelope %q slot %d accepted, reference refuses: %v", name, body, i, wantErr)
		case errs[i] == nil:
			if d := sameRequest(reqs[0], want); d != "" {
				t.Fatalf("%s envelope %q slot %d: %s", name, body, i, d)
			}
			reqs = reqs[1:]
		case wantErr == nil && !errors.Is(errs[i], errAmbiguousKey):
			t.Fatalf("%s envelope %q slot %d refused (%v), reference accepts", name, body, i, errs[i])
		}
	}
}

func checkBatchResponseVsReference(t *testing.T, name string, body []byte) {
	c, _ := CodecFor(name)
	ref := refCodecFor(name)
	var env batchResponse
	wantErr := json.Unmarshal(body, &env)
	// Decode against as many shipped slots as the reference holds, so the
	// slot count agrees whenever both accept.
	n := len(env.Results)
	specs := make([]targeting.Spec, n)
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	out := make([]core.BatchResult, n)
	client := &Client{codec: c}
	err := client.decodeResults(body, specs, slots, out)
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("%s results %q accepted, reference refuses: %v", name, body, wantErr)
	case err != nil:
		if wantErr == nil && !errors.Is(err, errAmbiguousKey) {
			t.Fatalf("%s results %q refused (%v), reference accepts", name, body, err)
		}
		return
	}
	for i, slot := range env.Results {
		var want int64
		var wantErr error
		if slot.Error != nil {
			wantErr = errorFromCode(slot.Error.Code, slot.Error.Message)
		} else {
			want, wantErr = ref.DecodeResponse(slot.Body)
		}
		got := out[i]
		switch {
		case got.Err == nil && (wantErr != nil || got.Size != want):
			t.Fatalf("%s results %q slot %d: %d, reference %d (%v)", name, body, i, got.Size, want, wantErr)
		case got.Err != nil && wantErr == nil && !errors.Is(got.Err, errAmbiguousKey):
			t.Fatalf("%s results %q slot %d refused (%v), reference reads %d", name, body, i, got.Err, want)
		case slot.Error != nil && got.Err.Error() != wantErr.Error():
			t.Fatalf("%s results %q slot %d: error %v, reference %v", name, body, i, got.Err, wantErr)
		}
	}
}
