package adapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// Fuzzing the decoders: whatever bytes arrive on the wire, DecodeRequest
// and DecodeResponse must return an error or a value — never panic — and a
// successfully decoded request must survive re-encode → re-decode
// unchanged (decode is a retraction of encode).

// seedBodies provides representative valid and broken bodies per dialect.
func seedBodies(t interface{ Helper() }, name string) [][]byte {
	c, err := CodecFor(name)
	if err != nil {
		panic(err)
	}
	var seeds [][]byte
	for _, req := range []platform.EstimateRequest{
		{Spec: targeting.Attr(1)},
		{Spec: targeting.And(targeting.AnyAttr(1, 2), targeting.Attr(3))},
		{Spec: targeting.WithAge(targeting.WithGender(targeting.Attr(0), 1), 0, 3)},
		{Spec: targeting.Excluding(targeting.Attr(5), targeting.AnyAttr(6, 7))},
		{Spec: targeting.And(targeting.CustomAudience(2), targeting.Attr(9))},
		// Deep AND compositions and broad exclusions drive audiences toward
		// the reporting floors (Facebook 1,000 / LinkedIn 300), where the
		// rounding and floor paths in the codecs and platforms diverge most.
		{Spec: targeting.And(targeting.Attr(0), targeting.Attr(1), targeting.Attr(2), targeting.Attr(3), targeting.Attr(4))},
		{Spec: targeting.WithGender(targeting.Excluding(targeting.Attr(0), targeting.AnyAttr(1, 2, 3, 4, 5)), 0)},
		{Spec: targeting.WithAge(targeting.And(targeting.Attr(7), targeting.Attr(8)), 3)},
	} {
		if body, err := c.AppendRequest(nil, req); err == nil {
			seeds = append(seeds, body)
		}
	}
	seeds = append(seeds,
		[]byte("{}"),
		[]byte("[]"),
		[]byte("{\"targeting_spec\":null}"),
		[]byte("{\"1\":{\"2\":{\"3\":[[1,2]],\"7\":[[19,22]]}}}"),
		[]byte("not json at all"),
		[]byte("{\"include\":{\"and\":[{\"or\":{\"bogus\":[\"urn:li:attribute:x\"]}}]}}"),
	)
	return seeds
}

// fuzzDecode drives one codec's request decoder.
func fuzzDecode(f *testing.F, name string) {
	for _, s := range seedBodies(f, name) {
		f.Add(s)
	}
	codec, err := CodecFor(name)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := codec.DecodeRequest(body)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		// Round-trip stability: re-encode and re-decode must preserve the
		// canonical spec. Encoding may legitimately reject specs the wire
		// cannot express (e.g. decoded demographic values out of range).
		body2, err := codec.AppendRequest(nil, req)
		if err != nil {
			return
		}
		req2, err := codec.DecodeRequest(body2)
		if err != nil {
			t.Fatalf("re-decode failed: %v\nbody: %s", err, body2)
		}
		if targeting.Canonical(req.Spec) != targeting.Canonical(req2.Spec) {
			t.Fatalf("round trip changed spec:\n in: %s\nout: %s",
				targeting.Canonical(req.Spec), targeting.Canonical(req2.Spec))
		}
	})
}

func FuzzFacebookDecodeRequest(f *testing.F) { fuzzDecode(f, catalog.PlatformFacebook) }
func FuzzGoogleDecodeRequest(f *testing.F)   { fuzzDecode(f, catalog.PlatformGoogle) }
func FuzzLinkedInDecodeRequest(f *testing.F) { fuzzDecode(f, catalog.PlatformLinkedIn) }

func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"data":[{"estimate_mau":1000}]}`))
	f.Add([]byte(`{"1":{"2":"46000"}}`))
	f.Add([]byte(`{"elements":[{"total":300}]}`))
	f.Add([]byte(`garbage`))
	codecs := []string{catalog.PlatformFacebook, catalog.PlatformGoogle, catalog.PlatformLinkedIn}
	// Boundary estimates: just under / at the Facebook (1,000) and LinkedIn
	// (300) reporting floors, zero (a floored audience), the 2-significant-
	// digit rounding edges, and values a dialect may render in shorthand.
	for _, v := range []int64{0, 40, 299, 300, 999, 1000, 1049, 1050, 100000, 104999, 1 << 31} {
		for _, name := range codecs {
			c, err := CodecFor(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(c.AppendResponse(nil, v))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, name := range codecs {
			c, err := CodecFor(name)
			if err != nil {
				t.Fatal(err)
			}
			// Must not panic; error or value both fine.
			if v, err := c.DecodeResponse(body); err == nil {
				// A decoded estimate must re-encode and decode to itself.
				v2, err := c.DecodeResponse(c.AppendResponse(nil, v))
				if err != nil || v2 != v {
					t.Fatalf("%s: response round trip %d -> %d (%v)", name, v, v2, err)
				}
			}
		}
	})
}

// FuzzServerRequestBodies posts arbitrary bytes through Server.Handler to
// every route that decodes a request body: each interface's /measure and
// /measure-batch, and /cluster/count-batch on a server fronting an
// in-process shard. Whatever arrives, the answer is a 2xx, or a 4xx whose
// body is the error envelope with a declared code other than internal —
// a caller's mistake is never reported as the server's — and the handler
// never panics.
func FuzzServerRequestBodies(f *testing.F) {
	const size = 1 << 10
	ring, err := cluster.NewRing([]string{"s0"}, 8, 0)
	if err != nil {
		f.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, size, 256)
	if err != nil {
		f.Fatal(err)
	}
	dep, err := platform.NewDeployment(platform.DeployOptions{
		Seed: 31, UniverseSize: size, ShardSpans: layout.ShardSpans("s0"), Metrics: obs.NewRegistry(),
	})
	if err != nil {
		f.Fatal(err)
	}
	shard, err := cluster.NewShardFromDeployment("s0", layout, dep)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(dep, ServerOptions{Metrics: obs.NewRegistry(), Shard: shard})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()
	declared := map[string]bool{
		codeMalformedRequest: true, codeRateLimited: true, codeMethodNotAllowed: true, codePartitionNotHeld: true,
	}
	for _, e := range codeByError {
		declared[e.code] = true
	}

	routes := []string{"/cluster/count-batch"}
	var seeds [][]byte
	add := func(body []byte) { seeds = append(seeds, body, body[:len(body)/2]) }
	specs := []targeting.Spec{
		targeting.Attr(1),
		targeting.And(targeting.AnyAttr(1, 2), targeting.Attr(3)),
		targeting.WithAge(targeting.WithGender(targeting.Attr(0), 1), 0, 3),
		targeting.Excluding(targeting.Attr(5), targeting.AnyAttr(6, 7)),
		targeting.Attr(1 << 20),
	}
	for _, p := range dep.Interfaces() {
		routes = append(routes, "/"+p.Name()+"/measure", "/"+p.Name()+"/measure-batch")
		codec, err := CodecFor(p.Name())
		if err != nil {
			f.Fatal(err)
		}
		var batch batchRequest
		var reqs []platform.EstimateRequest
		for _, spec := range specs {
			req := platform.EstimateRequest{Spec: spec}
			reqs = append(reqs, req)
			if body, err := codec.AppendRequest(nil, req); err == nil {
				add(body)
				batch.Requests = append(batch.Requests, body)
			}
		}
		// Long slot lists: the seed specs sixteen times over.
		long, longReqs := batchRequest{}, []platform.EstimateRequest(nil)
		for i := 0; i < 16; i++ {
			long.Requests = append(long.Requests, batch.Requests...)
			longReqs = append(longReqs, reqs...)
		}
		for _, b := range []batchRequest{batch, long} {
			body, err := json.Marshal(b)
			if err != nil {
				f.Fatal(err)
			}
			add(body)
		}
		for _, cb := range []countBatchRequest{
			{Interface: p.Name(), Door: "measure", Partitions: shard.Held(), Requests: reqs},
			{Interface: p.Name(), Door: "estimate", Partitions: []uint32{2, 0}, Requests: longReqs},
			{Interface: p.Name(), Door: "measure", Partitions: []uint32{99}, Requests: reqs},
			{Interface: p.Name(), Door: "back", Partitions: []uint32{0}, Requests: reqs},
			{Interface: "nope", Door: "measure", Partitions: []uint32{0}, Requests: reqs},
		} {
			body, err := json.Marshal(cb)
			if err != nil {
				f.Fatal(err)
			}
			add(body)
		}
	}
	seeds = append(seeds, []byte("{}"), []byte("[]"), []byte(`{"requests":[{}, [], null, 7]}`), nil)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range routes {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			if rec.Code/100 == 2 {
				continue
			}
			var env errorEnvelope
			err := json.Unmarshal(rec.Body.Bytes(), &env)
			if rec.Code/100 != 4 || err != nil || !declared[env.Error.Code] || env.Error.Code == codeInternal {
				t.Fatalf("POST %s %q: HTTP %d %s", route, body, rec.Code, rec.Body)
			}
		}
	})
}
