package adapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/targeting"
)

func TestRetryAfter(t *testing.T) {
	tests := []struct {
		name   string
		header string
		set    bool
		want   time.Duration
	}{
		{"missing header", "", false, 0},
		{"empty value", "", true, 0},
		{"non-numeric", "soon", true, 0},
		{"zero", "0", true, 0},
		{"negative", "-3", true, 0},
		{"integer seconds", "2", true, 2 * time.Second},
		{"fractional seconds", "1.5", true, 1500 * time.Millisecond},
		{"large value", "300", true, 300 * time.Second},
		{"NaN", "NaN", true, 0},
		{"trailing junk still scans prefix", "2 seconds", true, 2 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp := &http.Response{Header: http.Header{}}
			if tt.set {
				resp.Header.Set("Retry-After", tt.header)
			}
			if got := retryAfter(resp); got != tt.want {
				t.Errorf("retryAfter(%q) = %v, want %v", tt.header, got, tt.want)
			}
		})
	}
}

// throttleScript serves the facebook dialect, returning scripted 429s on the
// measure door before finally succeeding.
type throttleScript struct {
	deny       atomic.Int64 // remaining 429s to serve
	retryAfter string       // Retry-After header for the first 429 only
	served     atomic.Int64 // total measure attempts observed
}

func (s *throttleScript) handler(t *testing.T) http.Handler {
	codec, err := CodecFor(catalog.PlatformFacebook)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/facebook/options", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(optionsResponse{
			Platform:   catalog.PlatformFacebook,
			Attributes: []string{"a0", "a1"},
		})
	})
	mux.HandleFunc("/facebook/measure", func(w http.ResponseWriter, r *http.Request) {
		n := s.served.Add(1)
		if s.deny.Add(-1) >= 0 {
			if n == 1 && s.retryAfter != "" {
				w.Header().Set("Retry-After", s.retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"throttled","message":"slow down"}}`)
			return
		}
		w.Write(codec.AppendResponse(nil, 1000))
	})
	return mux
}

// fakeSleepClient builds a client whose retry sleeps are recorded rather
// than waited out, so the backoff schedule is assertable in microseconds.
func fakeSleepClient(t *testing.T, url string, reg *obs.Registry) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := NewClient(context.Background(), url, catalog.PlatformFacebook, ClientOptions{
		MaxRetries: 3,
		RetryBase:  50 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
	return c, slept
}

func TestClientBackoffDoubles(t *testing.T) {
	script := &throttleScript{}
	script.deny.Store(3)
	ts := httptest.NewServer(script.handler(t))
	defer ts.Close()

	reg := obs.NewRegistry()
	c, slept := fakeSleepClient(t, ts.URL, reg)
	v, err := c.Measure(targeting.Attr(0))
	if err != nil {
		t.Fatalf("measure after retries: %v", err)
	}
	if v != 1000 {
		t.Fatalf("measure = %d, want 1000", v)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Errorf("sleep %d = %v, want %v (schedule %v)", i, (*slept)[i], d, *slept)
		}
	}
	lbl := obs.L("platform", catalog.PlatformFacebook)
	if got := reg.CounterValue("adapi_client_429_total", lbl); got != 3 {
		t.Errorf("429 counter = %d, want 3", got)
	}
	if got := reg.CounterValue("adapi_client_retries_total", lbl); got != 3 {
		t.Errorf("retries counter = %d, want 3", got)
	}
}

func TestClientHonorsRetryAfterOverBackoff(t *testing.T) {
	script := &throttleScript{retryAfter: "1"}
	script.deny.Store(2)
	ts := httptest.NewServer(script.handler(t))
	defer ts.Close()

	reg := obs.NewRegistry()
	c, slept := fakeSleepClient(t, ts.URL, reg)
	if _, err := c.Measure(targeting.Attr(0)); err != nil {
		t.Fatalf("measure after retries: %v", err)
	}
	// First wait is lifted from 50ms to the header's 1s; doubling then
	// proceeds from the raised value.
	want := []time.Duration{time.Second, 2 * time.Second}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	lbl := obs.L("platform", catalog.PlatformFacebook)
	if got := reg.CounterValue("adapi_client_retry_after_total", lbl); got != 1 {
		t.Errorf("retry-after counter = %d, want 1", got)
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	script := &throttleScript{}
	script.deny.Store(1 << 30)
	ts := httptest.NewServer(script.handler(t))
	defer ts.Close()

	reg := obs.NewRegistry()
	c, slept := fakeSleepClient(t, ts.URL, reg)
	_, err := c.Measure(targeting.Attr(0))
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	// MaxRetries=3 means 4 attempts and 3 waits between them.
	if len(*slept) != 3 {
		t.Fatalf("slept %v, want 3 waits", *slept)
	}
	if got := script.served.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4", got)
	}
}

func TestClientSleepCancellation(t *testing.T) {
	script := &throttleScript{}
	script.deny.Store(1 << 30)
	ts := httptest.NewServer(script.handler(t))
	defer ts.Close()

	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{
		MaxRetries: 3,
		RetryBase:  time.Millisecond,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MeasureCtx(ctx, targeting.Attr(0)); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
