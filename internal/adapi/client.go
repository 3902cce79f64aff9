package adapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// maxResponseBytes bounds how much of a response body the client and the
// shard connection read.
const maxResponseBytes = 8 << 20

// errResponseTooLarge marks an answer whose body exceeds maxResponseBytes.
// It is not retried: the same request draws the same answer.
var errResponseTooLarge = fmt.Errorf("response exceeds %d bytes", maxResponseBytes)

// readResponse reads the body of url's answer, one byte past
// maxResponseBytes, so an answer over the bound fails naming url and the
// bound instead of being cut short into a decode error.
func readResponse(body io.Reader, url string) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxResponseBytes+1))
	switch {
	case err != nil:
		return nil, fmt.Errorf("reading response from %s: %w", url, err)
	case len(b) > maxResponseBytes:
		return nil, fmt.Errorf("%w from %s", errResponseTooLarge, url)
	}
	return b, nil
}

// ClientOptions configures an API client.
type ClientOptions struct {
	// HTTPClient is the transport; nil selects a client with a 30 s timeout.
	HTTPClient *http.Client
	// RateLimit is the client-side query rate in queries per second
	// (0 disables — the paper's crawler always rate-limited itself).
	RateLimit float64
	// Burst is the rate-limit burst capacity.
	Burst float64
	// MaxRetries bounds retries on 429 and 5xx responses. Zero selects 4.
	MaxRetries int
	// RetryBase is the initial backoff; zero selects 50 ms. Backoff doubles
	// per attempt and honours Retry-After when present.
	RetryBase time.Duration
	// Metrics receives the client's request metrics; nil selects the
	// process-wide obs.Default() registry.
	Metrics *obs.Registry
}

// Client automates one platform interface's estimate API, implementing
// core.Provider so the audit methodology runs unchanged over the network.
type Client struct {
	base    string
	name    string
	codec   Codec
	hc      *http.Client
	limiter *Limiter
	opts    ClientOptions

	attrs        []string
	topics       []string
	crossFeature bool

	// sleep blocks between retry attempts; tests inject a fake clock here
	// to assert the backoff schedule without waiting it out.
	sleep func(ctx context.Context, d time.Duration) error

	mRequests   *obs.Histogram // adapi_client_request_seconds: one HTTP attempt
	mRetries    *obs.Counter   // adapi_client_retries_total: re-issued attempts
	m429        *obs.Counter   // adapi_client_429_total: throttled responses
	m5xx        *obs.Counter   // adapi_client_5xx_total: upstream failures
	mRetryAfter *obs.Counter   // adapi_client_retry_after_total: honored headers
	mBackoff    *obs.Histogram // adapi_client_backoff_seconds: waits between attempts
}

// NewClient connects to an adapi server at baseURL (e.g.
// "http://127.0.0.1:8700") and prepares a provider for the named interface.
// The option lists are fetched eagerly, mirroring the paper's initial crawl
// of the targeting UI's default lists.
func NewClient(ctx context.Context, baseURL, name string, opts ClientOptions) (*Client, error) {
	codec, err := CodecFor(name)
	if err != nil {
		return nil, err
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 4
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	lbl := obs.L("platform", name)
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		name:        name,
		codec:       codec,
		hc:          opts.HTTPClient,
		opts:        opts,
		sleep:       sleepContext,
		mRequests:   reg.Histogram("adapi_client_request_seconds", lbl),
		mRetries:    reg.Counter("adapi_client_retries_total", lbl),
		m429:        reg.Counter("adapi_client_429_total", lbl),
		m5xx:        reg.Counter("adapi_client_5xx_total", lbl),
		mRetryAfter: reg.Counter("adapi_client_retry_after_total", lbl),
		mBackoff:    reg.Histogram("adapi_client_backoff_seconds", lbl),
	}
	if opts.RateLimit > 0 {
		c.limiter = NewLimiter(opts.RateLimit, opts.Burst)
	}
	if err := c.fetchOptions(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// fetchOptions loads the interface's option lists.
func (c *Client) fetchOptions(ctx context.Context) error {
	body, err := c.do(ctx, http.MethodGet, c.base+"/"+c.name+"/options", nil)
	if err != nil {
		return fmt.Errorf("fetching options: %w", err)
	}
	var resp optionsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("adapi: malformed options response: %w", err)
	}
	if resp.Platform != c.name {
		return fmt.Errorf("adapi: options for %q, want %q", resp.Platform, c.name)
	}
	c.attrs = resp.Attributes
	c.topics = resp.Topics
	c.crossFeature = resp.CrossFeature
	return nil
}

// Name implements core.Provider.
func (c *Client) Name() string { return c.name }

// AttributeNames implements core.Provider.
func (c *Client) AttributeNames() []string { return c.attrs }

// TopicNames implements core.Provider.
func (c *Client) TopicNames() []string { return c.topics }

// CrossFeature implements core.Provider.
func (c *Client) CrossFeature() bool { return c.crossFeature }

// Measure implements core.Provider: one auditor-door size query.
func (c *Client) Measure(spec targeting.Spec) (int64, error) {
	return c.MeasureCtx(context.Background(), spec)
}

// MeasureCtx is Measure with caller-controlled cancellation: one serial
// /measure exchange. When the context carries a trace span the exchange is
// recorded as a child span and the trace rides the X-Adaudit-Trace header
// to the server, which continues it — one trace spans both processes.
func (c *Client) MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error) {
	return c.size(ctx, "/measure", platform.EstimateRequest{Spec: spec})
}

// Estimate queries the advertiser door, validating the spec as an
// advertiser submission.
func (c *Client) Estimate(ctx context.Context, req platform.EstimateRequest) (int64, error) {
	return c.size(ctx, "/estimate", req)
}

// size issues one dialect-encoded size query.
func (c *Client) size(ctx context.Context, door string, req platform.EstimateRequest) (int64, error) {
	span := trace.ChildOf(trace.FromContext(ctx), "adapi.client")
	if span != nil {
		defer span.End()
		span.Annotate("endpoint", c.base)
		span.Annotate("door", door)
		ctx = trace.NewContext(ctx, span)
	}
	body, err := c.codec.AppendRequest(nil, req)
	if err != nil {
		span.SetError(err)
		return 0, err
	}
	respBody, err := c.do(ctx, http.MethodPost, c.base+"/"+c.name+door, body)
	if err != nil {
		span.SetError(err)
		return 0, err
	}
	v, err := c.codec.DecodeResponse(respBody)
	span.SetError(err)
	if err == nil {
		if plog := span.ProvenanceLog(); plog != nil {
			plog.Add(trace.Provenance{
				Platform: c.name,
				Key:      targeting.Canonical(req.Spec),
				Source:   "remote",
				Endpoint: c.base,
				TraceID:  span.TraceID(),
				Value:    v,
			})
		}
	}
	return v, err
}

// do performs one HTTP exchange with rate limiting and bounded retries on
// 429/5xx. A trace span riding the context is propagated to the server in
// the X-Adaudit-Trace header, and each attempt's latency observation carries
// the trace ID as an exemplar.
func (c *Client) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	span := trace.FromContext(ctx)
	header := span.Context().Format()
	exID := "" // exemplars link only to traces the buffer actually records
	if span.Sampled() {
		exID = span.TraceID()
	}
	backoff := c.opts.RetryBase
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.mRetries.Inc()
			span.AnnotateInt("retries", int64(attempt))
		}
		if err := c.limiter.Wait(ctx); err != nil {
			return nil, err
		}
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, reader)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if header != "" {
			req.Header.Set(trace.HeaderName, header)
		}
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			c.mRequests.ObserveWithExemplar(time.Since(start), exID)
			lastErr = err
		} else {
			respBody, readErr := readResponse(resp.Body, url)
			resp.Body.Close()
			c.mRequests.ObserveWithExemplar(time.Since(start), exID)
			if errors.Is(readErr, errResponseTooLarge) {
				return nil, fmt.Errorf("adapi: %w", readErr)
			}
			if readErr != nil {
				lastErr = readErr
			} else {
				switch {
				case resp.StatusCode == http.StatusOK:
					return respBody, nil
				case resp.StatusCode == http.StatusRequestEntityTooLarge:
					return nil, fmt.Errorf("%w: %d-byte body", ErrBodyTooLarge, len(body))
				case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
					if resp.StatusCode == http.StatusTooManyRequests {
						c.m429.Inc()
					} else {
						c.m5xx.Inc()
					}
					lastErr = fmt.Errorf("adapi: server returned %d", resp.StatusCode)
					if d := retryAfter(resp); d > 0 {
						c.mRetryAfter.Inc()
						if d > backoff {
							backoff = d
						}
					}
				default:
					return nil, decodeErrorEnvelope(resp.StatusCode, respBody)
				}
			}
		}
		if attempt == c.opts.MaxRetries {
			break
		}
		c.mBackoff.Observe(backoff)
		if err := c.sleep(ctx, backoff); err != nil {
			return nil, err
		}
		backoff *= 2
	}
	return nil, fmt.Errorf("adapi: giving up after %d attempts: %w", c.opts.MaxRetries+1, lastErr)
}

// sleepContext blocks for d or until the context is done.
func sleepContext(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a Retry-After header as seconds.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	var secs float64
	if _, err := fmt.Sscanf(v, "%f", &secs); err != nil || secs <= 0 || math.IsNaN(secs) {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// decodeErrorEnvelope reconstructs a typed error from an error body.
func decodeErrorEnvelope(status int, body []byte) error {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return fmt.Errorf("adapi: server returned %d: %s", status, string(body))
	}
	return errorFromCode(env.Error.Code, env.Error.Message)
}
