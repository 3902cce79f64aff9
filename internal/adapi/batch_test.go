package adapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/store"
	"repro/internal/targeting"
)

// batteryCases draws one battery case of each shape for c's interface.
func batteryCases(c *Client, seed uint64) []battery.Case {
	return battery.Draw(seed, battery.Shapes, battery.Catalog{Attributes: len(c.AttributeNames()), Topics: len(c.TopicNames())})
}

// TestMeasureBatchOneExchange: the whole batch costs one request on the
// measure-batch door and zero on the serial measure door, even with slots
// the dialect cannot encode: those slots alone fail, with the encoder's
// error.
func TestMeasureBatchOneExchange(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := startServer(t, ServerOptions{Metrics: reg})
	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cases := batteryCases(c, 5)
	res := c.MeasureMany(battery.Specs(cases))
	for i, cs := range cases {
		switch cs.Shape {
		case "topic": // Facebook's dialect has no topic feature.
			if !errors.Is(res[i].Err, targeting.ErrKindForbidden) {
				t.Errorf("topic slot %d: err %v, want targeting.ErrKindForbidden", i, res[i].Err)
			}
		case "attr", "and", "gender", "chain":
			if res[i].Err != nil {
				t.Errorf("encodable %s slot %d failed: %v", cs.Shape, i, res[i].Err)
			}
		}
	}
	iface := obs.L("interface", catalog.PlatformFacebook)
	if n := reg.CounterValue("adapi_server_requests_total", iface, obs.L("door", "measure-batch")); n != 1 {
		t.Errorf("measure-batch requests = %d, want 1", n)
	}
	if n := reg.CounterValue("adapi_server_requests_total", iface, obs.L("door", "measure")); n != 0 {
		t.Errorf("measure requests = %d, want 0 (no serial fallback)", n)
	}
}

// TestRepeatedDemographicsOverHTTP: an AND of two gender clauses, or of two
// age clauses, never travels as their OR. The Facebook and Google dialects
// carry each kind as one list, so their encoders refuse a second clause
// with ErrTooManyClauses before anything is sent; LinkedIn's and-of-ors
// carries it and answers exactly what the interface answers in process.
func TestRepeatedDemographicsOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	ts, d := startServer(t, ServerOptions{Metrics: reg})
	specs := []targeting.Spec{
		targeting.WithGender(targeting.WithGender(targeting.Attr(3), int(population.Male)), int(population.Female)),
		targeting.WithAge(targeting.WithAge(targeting.Attr(3), 0), 3),
	}
	for _, p := range d.Interfaces() {
		c, err := NewClient(context.Background(), ts.URL, p.Name(), ClientOptions{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			got, err := c.Measure(spec)
			want, werr := p.Measure(platform.EstimateRequest{Spec: spec})
			if p.Name() == catalog.PlatformLinkedIn {
				if err != nil || werr != nil || got != want {
					t.Errorf("%s %s: over HTTP (%d, %v), in process (%d, %v)", p.Name(), targeting.Canonical(spec), got, err, want, werr)
				}
			} else if !errors.Is(err, targeting.ErrTooManyClauses) {
				t.Errorf("%s %s: over HTTP (%d, %v), want targeting.ErrTooManyClauses", p.Name(), targeting.Canonical(spec), got, err)
			}
		}
		sent := reg.CounterValue("adapi_server_requests_total", obs.L("interface", p.Name()), obs.L("door", "measure"))
		if want := map[bool]int64{true: 2, false: 0}[p.Name() == catalog.PlatformLinkedIn]; sent != want {
			t.Errorf("%s: %d measure requests reached the server, want %d", p.Name(), sent, want)
		}
	}
}

// TestMeasureBatchStoreTier: a store-backed server answers a repeated batch
// entirely from disk — the platform sees no queries the second time.
func TestMeasureBatchStoreTier(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	ts, d := startServer(t, ServerOptions{Store: st, Metrics: reg})
	var p *platform.Interface
	for _, cand := range d.Interfaces() {
		if cand.Name() == catalog.PlatformFacebook {
			p = cand
		}
	}
	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.And(targeting.Attr(0), targeting.Attr(1))}
	cold := platformQueries(p.Name())
	first := c.MeasureMany(specs)
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("first batch slot %d: %v", i, r.Err)
		}
	}
	if delta := platformQueries(p.Name()) - cold; delta != int64(len(specs)) {
		t.Fatalf("first batch placed %d queries on the platform, want %d", delta, len(specs))
	}
	if n := st.Len(); n != len(specs) {
		t.Fatalf("store holds %d records, want %d", n, len(specs))
	}
	before := platformQueries(p.Name())
	second := c.MeasureMany(specs)
	for i, r := range second {
		if r.Err != nil || r.Size != first[i].Size {
			t.Errorf("second batch slot %d: (%d, %v), want (%d, nil)", i, r.Size, r.Err, first[i].Size)
		}
	}
	if delta := platformQueries(p.Name()) - before; delta != 0 {
		t.Errorf("second batch placed %d queries on the platform, want 0", delta)
	}
	if hits := reg.CounterValue("adapi_server_store_hits_total", obs.L("interface", catalog.PlatformFacebook)); hits != int64(len(specs)) {
		t.Errorf("store hits = %d, want %d", hits, len(specs))
	}
}

// TestMeasureBatchExchangeErrorFailsEverySlot: a batch exchange that fails
// after its retries fails every slot with that error, and the client sends
// no serial /measure request: against an always-503 server an 8-spec batch
// costs the batch door's five attempts and nothing more.
func TestMeasureBatchExchangeErrorFailsEverySlot(t *testing.T) {
	var batchCalls, serialCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/facebook/options", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(optionsResponse{
			Platform:   catalog.PlatformFacebook,
			Attributes: []string{"a0", "a1"},
		})
	})
	mux.HandleFunc("/facebook/measure", func(w http.ResponseWriter, r *http.Request) {
		serialCalls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/facebook/measure-batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(context.Context, time.Duration) error { return nil }
	specs := make([]targeting.Spec, 8)
	for i := range specs {
		specs[i] = targeting.And(targeting.Attr(i%2), targeting.Attr((i/2)%2))
	}
	for i, r := range c.MeasureMany(specs) {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "giving up after 5 attempts") {
			t.Errorf("slot %d: err %v, want the exchange's retry error", i, r.Err)
		}
	}
	if n := batchCalls.Load(); n != 5 {
		t.Errorf("measure-batch requests = %d, want 5 (one exchange, four retries)", n)
	}
	if n := serialCalls.Load(); n != 0 {
		t.Errorf("serial measure requests = %d, want 0", n)
	}
}

// TestMeasureBatchBoundsResponse: a batch answer over the response bound
// fails every slot at once with an error naming the URL and the bound; it
// is neither cut short into a decode error nor retried.
func TestMeasureBatchBoundsResponse(t *testing.T) {
	var batchCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/facebook/options", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(optionsResponse{
			Platform:   catalog.PlatformFacebook,
			Attributes: []string{"a0", "a1"},
		})
	})
	mux.HandleFunc("/facebook/measure-batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		chunk := []byte(strings.Repeat(" ", 1<<20))
		for i := 0; i < 9; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(context.Context, time.Duration) error { return nil }
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.And(targeting.Attr(0), targeting.Attr(1))}
	for i, r := range c.MeasureMany(specs) {
		if !errors.Is(r.Err, errResponseTooLarge) || !strings.Contains(r.Err.Error(), ts.URL+"/facebook/measure-batch") {
			t.Errorf("slot %d: err %v, want the response bound error naming the URL", i, r.Err)
		}
	}
	if n := batchCalls.Load(); n != 1 {
		t.Errorf("measure-batch requests = %d, want 1", n)
	}
}

// TestMeasureBatchMalformedEnvelope: a non-envelope body is rejected whole.
func TestMeasureBatchMalformedEnvelope(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry()})
	resp, err := http.Post(ts.URL+"/facebook/measure-batch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// oversizedBatch returns 300 distinct two-attribute specs: far more than a
// 4 KiB body holds, while any one of them fits easily.
func oversizedBatch(nAttr int) []targeting.Spec {
	specs := make([]targeting.Spec, 300)
	for i := range specs {
		specs[i] = targeting.And(targeting.Attr(i%nAttr), targeting.Attr((i/nAttr+i+1)%nAttr))
	}
	return specs
}

// TestMeasureBatchSplitsOversizedBatch: a batch over the server's body limit
// is refused with 413, and the client splits it in halves until every part
// fits — no serial fallback — with every slot matching serial Measure.
func TestMeasureBatchSplitsOversizedBatch(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := startServer(t, ServerOptions{MaxBodyBytes: 4 << 10, Metrics: reg})
	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	specs := oversizedBatch(len(c.AttributeNames()))
	got := c.MeasureMany(specs)
	iface := obs.L("interface", catalog.PlatformFacebook)
	if n := reg.CounterValue("adapi_server_requests_total", iface, obs.L("door", "measure")); n != 0 {
		t.Fatalf("serial measure exchanges = %d, want 0", n)
	}
	if n := reg.CounterValue("adapi_server_requests_total", iface, obs.L("door", "measure-batch")); n < 3 {
		t.Fatalf("measure-batch exchanges = %d, want the batch split", n)
	}
	for i, spec := range specs {
		size, serr := c.Measure(spec)
		if (got[i].Err == nil) != (serr == nil) || got[i].Size != size {
			t.Fatalf("slot %d: batch (%d, %v), serial (%d, %v)", i, got[i].Size, got[i].Err, size, serr)
		}
	}
}
