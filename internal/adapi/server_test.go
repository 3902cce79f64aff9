package adapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/targeting"
)

var (
	srvOnce   sync.Once
	srvDeploy *platform.Deployment
	srvErr    error
)

func serverDeploy(t *testing.T) *platform.Deployment {
	t.Helper()
	srvOnce.Do(func() {
		srvDeploy, srvErr = platform.NewDeployment(platform.DeployOptions{Seed: 21, UniverseSize: 15000})
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvDeploy
}

// platformQueries reads platform_queries_total, summed over both doors, for
// one interface of the shared deployment, which reports into obs.Default().
func platformQueries(iface string) int64 {
	reg, l := obs.Default(), obs.L("interface", iface)
	return reg.CounterValue("platform_queries_total", l, obs.L("door", "measure")) +
		reg.CounterValue("platform_queries_total", l, obs.L("door", "estimate"))
}

func startServer(t *testing.T, opts ServerOptions) (*httptest.Server, *platform.Deployment) {
	t.Helper()
	d := serverDeploy(t)
	srv, err := NewServer(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, d
}

func TestHealthz(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestOptionsEndpoint(t *testing.T) {
	ts, d := startServer(t, ServerOptions{})
	for _, p := range d.Interfaces() {
		resp, err := http.Get(ts.URL + "/" + p.Name() + "/options")
		if err != nil {
			t.Fatal(err)
		}
		var opts optionsResponse
		if err := json.NewDecoder(resp.Body).Decode(&opts); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if opts.Platform != p.Name() {
			t.Errorf("options platform %q, want %q", opts.Platform, p.Name())
		}
		if len(opts.Attributes) != len(p.Catalog().Attributes) {
			t.Errorf("%s: options returned %d attributes, want %d",
				p.Name(), len(opts.Attributes), len(p.Catalog().Attributes))
		}
		if (p.Name() == catalog.PlatformGoogle) != (len(opts.Topics) > 0) {
			t.Errorf("%s: topics presence wrong", p.Name())
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	resp, err := http.Get(ts.URL + "/facebook/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestAdvertiserDoorValidatesOverHTTP(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformFacebookRestricted, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The restricted advertiser door must reject demographics...
	_, err = c.Estimate(ctx, platform.EstimateRequest{
		Spec: targeting.WithGender(targeting.Attr(0), int(population.Male)),
	})
	if !errors.Is(err, targeting.ErrDemoForbidden) {
		t.Fatalf("want ErrDemoForbidden over the wire, got %v", err)
	}
	// ...while the measure door accepts them.
	if _, err := c.Measure(targeting.WithGender(targeting.Attr(0), int(population.Male))); err != nil {
		t.Fatalf("measure door rejected demographics: %v", err)
	}
}

func TestGoogleRuleErrorsSurviveWire(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformGoogle, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Measure(targeting.And(targeting.Attr(0), targeting.Attr(1)))
	if !errors.Is(err, targeting.ErrAndWithinFeature) {
		t.Fatalf("want ErrAndWithinFeature over the wire, got %v", err)
	}
}

func TestMalformedBody(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	resp, err := http.Post(ts.URL+"/facebook/estimate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != codeMalformedRequest {
		t.Fatalf("code %q, want %q", env.Error.Code, codeMalformedRequest)
	}
}

func TestBodyTooLarge(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{MaxBodyBytes: 64})
	big := `{"targeting_spec":{"flexible_spec":[{"interests":[` +
		strings.Repeat(`{"id":1},`, 100) + `{"id":2}]}]}}`
	resp, err := http.Post(ts.URL+"/facebook/estimate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestServerRateLimitAndClientRetry(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{RateLimit: 200, Burst: 2})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformLinkedIn, ClientOptions{
		MaxRetries: 6,
		RetryBase:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of queries: the server throttles but the client's retries must
	// land every one of them.
	for i := 0; i < 25; i++ {
		if _, err := c.Measure(targeting.Attr(i % 20)); err != nil {
			t.Fatalf("query %d failed despite retries: %v", i, err)
		}
	}
}

func TestClientRateLimiterPacesRequests(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformLinkedIn, ClientOptions{
		RateLimit: 100, // 10ms per request after burst
		Burst:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Measure(targeting.Attr(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 4 post-burst requests at 100 qps ≥ ~40ms.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("5 rate-limited requests finished in %v; limiter not pacing", elapsed)
	}
}

func TestClientContextCancellation(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformFacebook, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.MeasureCtx(cancelled, targeting.Attr(0)); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestClientUnknownInterface(t *testing.T) {
	ts, _ := startServer(t, ServerOptions{})
	if _, err := NewClient(context.Background(), ts.URL, "myspace", ClientOptions{}); err == nil {
		t.Fatal("unknown interface accepted")
	}
}

func TestClientRetriesExhaust(t *testing.T) {
	// A server that always 500s must exhaust retries and fail.
	var calls int
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/options") {
			_ = json.NewEncoder(w).Encode(optionsResponse{Platform: catalog.PlatformLinkedIn, Attributes: []string{"a"}})
			return
		}
		calls++
		w.WriteHeader(500)
	}))
	defer failing.Close()
	c, err := NewClient(context.Background(), failing.URL, catalog.PlatformLinkedIn, ClientOptions{
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(targeting.Attr(0)); err == nil {
		t.Fatal("expected failure after retries")
	}
	if calls != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", calls)
	}
}

func TestFullAuditOverHTTP(t *testing.T) {
	// End-to-end: the core methodology driving a remote platform through
	// the wire dialects, exactly as the paper's Python scraper drove the
	// live APIs.
	if testing.Short() {
		t.Skip("short mode")
	}
	ts, d := startServer(t, ServerOptions{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, catalog.PlatformFacebookRestricted, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	remote := core.NewAuditor(c)
	local := core.NewAuditor(core.NewPlatformProvider(d.FacebookRestricted))

	maleClass := core.GenderClass(population.Male)
	rInd, err := remote.Individuals(maleClass)
	if err != nil {
		t.Fatal(err)
	}
	lInd, err := local.Individuals(maleClass)
	if err != nil {
		t.Fatal(err)
	}
	if len(rInd) != len(lInd) {
		t.Fatalf("remote found %d individuals, local %d", len(rInd), len(lInd))
	}
	for i := range rInd {
		if rInd[i].RepRatio != lInd[i].RepRatio {
			t.Fatalf("individual %d: remote ratio %v != local %v", i, rInd[i].RepRatio, lInd[i].RepRatio)
		}
	}
	rTop, err := remote.GreedyCompositions(rInd, maleClass, core.ComposeConfig{K: 50, Direction: core.Top, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lTop, err := local.GreedyCompositions(lInd, maleClass, core.ComposeConfig{K: 50, Direction: core.Top, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rTop) != len(lTop) {
		t.Fatalf("remote %d top compositions, local %d", len(rTop), len(lTop))
	}
	for i := range rTop {
		if rTop[i].RepRatio != lTop[i].RepRatio || rTop[i].Recall != lTop[i].Recall {
			t.Fatalf("composition %d differs over the wire", i)
		}
	}
}

func TestLimiterAllow(t *testing.T) {
	l := NewLimiter(10, 2)
	now := time.Unix(0, 0)
	l.setClock(func() time.Time { return now })
	allow := func() bool {
		ok, _ := l.Allow()
		return ok
	}
	if !allow() || !allow() {
		t.Fatal("burst of 2 should admit 2")
	}
	if ok, wait := l.Allow(); ok || wait != 100*time.Millisecond {
		t.Fatalf("third immediate request: admitted %v, wait %v; want refused, 100ms", ok, wait)
	}
	now = now.Add(100 * time.Millisecond) // one token refilled
	if !allow() {
		t.Fatal("token should have refilled")
	}
	if allow() {
		t.Fatal("no second token yet")
	}
}

// TestServerRetryAfter pins the 429's Retry-After header against the
// limiter's refill time on a fake clock: none when the next token is under
// a second away (200 qps), so the client backs off from its own RetryBase,
// and the wait in whole seconds, rounded up, otherwise (0.5 qps: 2).
func TestServerRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string
	}{{200, ""}, {0.5, "2"}, {0.4, "3"}} {
		l := NewLimiter(tc.rate, 1)
		now := time.Unix(0, 0)
		l.setClock(func() time.Time { return now })
		h := &ifaceHandler{limiter: l, m429: obs.NewRegistry().Counter("adapi_server_429_total")}
		if h.throttled(httptest.NewRecorder()) {
			t.Fatalf("%v qps: first request throttled", tc.rate)
		}
		w := httptest.NewRecorder()
		if !h.throttled(w) || w.Code != http.StatusTooManyRequests || h.m429.Value() != 1 {
			t.Fatalf("%v qps: second request answered %d, %d throttled; want 429, 1", tc.rate, w.Code, h.m429.Value())
		}
		if got, set := w.Header()["Retry-After"]; tc.want == "" && set || tc.want != "" && (len(got) != 1 || got[0] != tc.want) {
			t.Fatalf("%v qps: Retry-After %q, want %q", tc.rate, got, tc.want)
		}
	}
}

func TestLimiterNil(t *testing.T) {
	var l *Limiter
	if ok, _ := l.Allow(); !ok {
		t.Fatal("nil limiter must admit")
	}
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterWaitCancel(t *testing.T) {
	l := NewLimiter(0.001, 1)
	l.Allow() // drain
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := l.Wait(ctx); err == nil {
		t.Fatal("wait should fail on cancelled context")
	}
}

func TestLimiterPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate should panic")
		}
	}()
	NewLimiter(0, 1)
}
