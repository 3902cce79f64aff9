package adapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/snapshot"
)

// errorEnvelope is the common error body shared by all endpoints.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// optionsResponse is the body of GET /{platform}/options — the option lists
// an auditor would otherwise scrape out of the targeting UI.
type optionsResponse struct {
	Platform     string   `json:"platform"`
	Attributes   []string `json:"attributes"`
	Topics       []string `json:"topics,omitempty"`
	CrossFeature bool     `json:"cross_feature"`
}

// ServerOptions configures the API server.
type ServerOptions struct {
	// RateLimit is the admitted queries per second per interface
	// (0 disables throttling).
	RateLimit float64
	// Burst is the rate-limit burst capacity.
	Burst float64
	// MaxBodyBytes bounds request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// Logf logs one line per request; nil disables logging.
	Logf func(format string, args ...any)
	// Metrics receives per-interface request metrics and backs the
	// /metrics endpoint; nil selects the process-wide obs.Default()
	// registry.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof profiling handlers under /debug/pprof/.
	Pprof bool
	// Store, when set, backs every interface's auditor door (/measure) with
	// a durable server-side cache: answers already persisted are served
	// without querying the platform and survive restarts. The advertiser
	// door is never cached. See internal/store for the on-disk format.
	Store core.MeasurementStore
	// Shard, when set, mounts the cluster door (POST /cluster/count-batch):
	// the raw-count endpoint a coordinator scatters batches to. Set by
	// platformd in shard mode.
	Shard ShardBackend
	// Tracer continues distributed traces arriving in the X-Adaudit-Trace
	// header and backs the /debug/traces and /debug/provenance endpoints;
	// nil selects the process-wide trace.Default() (which may itself be nil
	// — tracing disabled — in which case headers are ignored at the cost of
	// one header lookup per request).
	Tracer *trace.Tracer
	// Jobs, when set, mounts the async audit-job service (internal/jobs)
	// under /jobs: submission, polling, cancellation, and event streams.
	// Set by platformd in -jobs mode.
	Jobs http.Handler
	// JobStats, when set alongside Jobs, feeds the /healthz jobs block
	// (queue depth and in-flight jobs).
	JobStats func() (queued, running int)
	// Snapshot, when set, identifies the on-disk snapshot the served
	// deployment was reconstructed from (internal/snapshot.LoadDeployment).
	// /healthz and /debug/provenance echo its content hash and build time,
	// so an operator — or a coordinator's preflight — can pin exactly which
	// catalog bytes a node serves. Set by platformd in -snapshot mode.
	Snapshot *snapshot.Info
}

// tracer resolves the serving tracer at request time, so a default tracer
// installed after server construction is still picked up.
func (s *ServerOptions) tracer() *trace.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return trace.Default()
}

// Server exposes a Deployment's interfaces over HTTP, each in its own JSON
// dialect.
type Server struct {
	mux  *http.ServeMux
	opts ServerOptions
	// catalogHash fingerprints the served deployment's catalogs
	// (platform.CatalogHash), computed once at construction and echoed from
	// /healthz so any client — including a remote coordinator's catalog-skew
	// preflight — can verify this node serves the expected options.
	catalogHash string
}

// ifaceHandler serves one platform interface.
type ifaceHandler struct {
	p       *platform.Interface
	codec   Codec
	limiter *Limiter
	opts    *ServerOptions
	reg     *obs.Registry
	m429    *obs.Counter // adapi_server_429_total: throttled requests

	// Server-side measurement cache (nil without ServerOptions.Store).
	store        core.MeasurementStore
	mStoreHits   *obs.Counter // adapi_server_store_hits_total
	mStoreErrors *obs.Counter // adapi_server_store_errors_total
}

// throttled answers 429 and reports true when the interface's limiter
// refuses a request. Retry-After carries the limiter's wait until its next
// token in whole seconds, rounded up, when that wait is at least a second;
// a shorter wait sends no header, so the client backs off from its own
// RetryBase.
func (h *ifaceHandler) throttled(w http.ResponseWriter) bool {
	ok, wait := h.limiter.Allow()
	if ok {
		return false
	}
	h.m429.Inc()
	if wait >= time.Second {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((wait+time.Second-1)/time.Second), 10))
	}
	writeError(w, http.StatusTooManyRequests, codeRateLimited, "slow down")
	return true
}

// doorMetrics is one endpoint's pre-resolved instruments, bound at route
// registration so the serving path performs no registry lookups.
type doorMetrics struct {
	total   *obs.Counter   // adapi_server_requests_total{interface,door}
	latency *obs.Histogram // adapi_server_request_seconds{interface,door}
}

// doorMetrics resolves the instruments for one interface endpoint.
func (h *ifaceHandler) doorMetrics(door string) doorMetrics {
	iface := obs.L("interface", h.p.Name())
	d := obs.L("door", door)
	return doorMetrics{
		total:   h.reg.Counter("adapi_server_requests_total", iface, d),
		latency: h.reg.Histogram("adapi_server_request_seconds", iface, d),
	}
}

// NewServer builds the HTTP API for all interfaces of a deployment.
//
// Routes (per interface name, e.g. "facebook-restricted"):
//
//	GET  /{name}/options        → option lists
//	POST /{name}/estimate       → advertiser-door size estimate
//	POST /{name}/measure        → auditor-door size estimate
//	POST /{name}/measure-batch  → auditor-door batch (one exchange, many specs)
//	GET  /healthz               → liveness
func NewServer(d *platform.Deployment, opts ServerOptions) (*Server, error) {
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default()
	}
	s := &Server{mux: http.NewServeMux(), opts: opts, catalogHash: platform.CatalogHash(d)}
	for _, p := range d.Interfaces() {
		codec, err := CodecFor(p.Name())
		if err != nil {
			return nil, err
		}
		h := &ifaceHandler{
			p:     p,
			codec: codec,
			opts:  &s.opts,
			reg:   opts.Metrics,
			m429:  opts.Metrics.Counter("adapi_server_429_total", obs.L("interface", p.Name())),
		}
		if opts.RateLimit > 0 {
			h.limiter = NewLimiter(opts.RateLimit, opts.Burst)
		}
		if opts.Store != nil {
			iface := obs.L("interface", p.Name())
			h.store = opts.Store
			h.mStoreHits = opts.Metrics.Counter("adapi_server_store_hits_total", iface)
			h.mStoreErrors = opts.Metrics.Counter("adapi_server_store_errors_total", iface)
		}
		prefix := "/" + p.Name()
		s.mux.Handle(prefix+"/options", h.wrap(h.handleOptions, http.MethodGet, "options"))
		s.mux.Handle(prefix+"/estimate", h.wrap(h.handleEstimate, http.MethodPost, "estimate"))
		s.mux.Handle(prefix+"/measure", h.wrap(h.handleMeasure, http.MethodPost, "measure"))
		s.mux.Handle(prefix+"/measure-batch", h.wrap(h.handleMeasureBatch, http.MethodPost, "measure-batch"))
		s.registerAudienceRoutes(h)
	}
	if opts.Shard != nil {
		s.registerClusterRoutes(opts.Shard)
	}
	if opts.Jobs != nil {
		s.mux.Handle("/jobs", opts.Jobs)
		s.mux.Handle("/jobs/", opts.Jobs)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		s.opts.tracer().Handler().ServeHTTP(w, r)
	})
	s.mux.HandleFunc("/debug/provenance", func(w http.ResponseWriter, r *http.Request) {
		// Every provenance listing carries the serving catalog's identity, so
		// a recorded measurement can be tied back to the exact snapshot (or
		// built deployment) that produced it even after the node restarts.
		w.Header().Set("X-Adaudit-Catalog-Hash", s.catalogHash)
		if info := s.opts.Snapshot; info != nil {
			w.Header().Set("X-Adaudit-Snapshot-Hash", info.ContentHash)
			w.Header().Set("X-Adaudit-Snapshot-Built-At", info.CreatedAt.UTC().Format(time.RFC3339))
		}
		s.opts.tracer().Provenance().Handler().ServeHTTP(w, r)
	})
	s.mux.Handle("/metrics", opts.Metrics.Handler())
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// shardHealth is the optional readiness surface of a ShardBackend:
// *cluster.Shard implements it, and the health endpoint echoes it so an
// operator (or a coordinator's preflight) can verify every node of a
// cluster agrees on the layout before a single count is scattered.
type shardHealth interface {
	Held() []uint32
	RingHash() uint64
}

// healthResponse is the body of GET /healthz. The shard fields appear only
// in shard mode: RingHash fingerprints the layout every node must share
// (ring nodes, vnodes, replicas, universe, partition size), so two shards
// disagreeing on it is a misconfigured cluster even when both report ok.
type healthResponse struct {
	Status     string `json:"status"`
	Shard      string `json:"shard,omitempty"`
	RingHash   string `json:"ring_hash,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
	Tracing    bool   `json:"tracing"`
	// CatalogHash fingerprints the catalogs this node serves; a remote
	// coordinator's preflight (cluster.CatalogHasher) compares it against
	// its own before scattering a single count.
	CatalogHash string `json:"catalog_hash"`
	// Snapshot appears when the deployment was loaded from a snapshot
	// rather than built: the snapshot's content hash and build time.
	Snapshot *snapshotHealth `json:"snapshot,omitempty"`
	// Jobs appears when the async audit-job service is mounted: whether it
	// is enabled plus its live queue depth and in-flight job count.
	Jobs *jobsHealth `json:"jobs,omitempty"`
}

// snapshotHealth is the /healthz block identifying the loaded snapshot.
type snapshotHealth struct {
	ContentHash string `json:"content_hash"`
	BuiltAt     string `json:"built_at"`
}

// jobsHealth is the /healthz block describing the job service.
type jobsHealth struct {
	Enabled bool `json:"enabled"`
	Queued  int  `json:"queued"`
	Running int  `json:"running"`
}

// handleHealthz serves readiness: liveness for a plain server, plus the
// shard's identity, layout fingerprint, and held-partition count in shard
// mode.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Tracing: s.opts.tracer().Enabled(), CatalogHash: s.catalogHash}
	if info := s.opts.Snapshot; info != nil {
		resp.Snapshot = &snapshotHealth{
			ContentHash: info.ContentHash,
			BuiltAt:     info.CreatedAt.UTC().Format(time.RFC3339),
		}
	}
	if s.opts.Jobs != nil {
		jh := &jobsHealth{Enabled: true}
		if s.opts.JobStats != nil {
			jh.Queued, jh.Running = s.opts.JobStats()
		}
		resp.Jobs = jh
	}
	if s.opts.Shard != nil {
		resp.Shard = s.opts.Shard.ID()
		if sh, ok := s.opts.Shard.(shardHealth); ok {
			resp.RingHash = fmt.Sprintf("%016x", sh.RingHash())
			resp.Partitions = len(sh.Held())
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("adapi: writing healthz response: %v", err)
	}
}

// logf logs if configured.
func (s *ServerOptions) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// writeError emits the shared error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = message
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(env); err != nil {
		log.Printf("adapi: writing error response: %v", err)
	}
}

// wrap applies method checking, rate limiting, tracing, metrics, and
// logging to a handler. door labels the endpoint's request counter and
// latency histogram. A valid X-Adaudit-Trace header continues the caller's
// distributed trace: the request runs under a remote-continued span carried
// in its context, and the door's latency observation links to the trace via
// an exemplar.
func (h *ifaceHandler) wrap(fn func(http.ResponseWriter, *http.Request), method, door string) http.Handler {
	m := h.doorMetrics(door)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		m.total.Inc()
		if h.throttled(w) {
			return
		}
		h.opts.logf("adapi: %s %s", r.Method, r.URL.Path)
		r, span := continueTrace(h.opts, r, "adapi.server."+door)
		if span != nil {
			span.Annotate("interface", h.p.Name())
			defer span.End()
		}
		start := time.Now()
		fn(w, r)
		m.latency.ObserveWithExemplar(time.Since(start), exemplarID(span))
	})
}

// continueTrace resumes the trace a request's X-Adaudit-Trace header names,
// returning the request rebound to a context carrying the remote-continued
// span. Requests without a valid header (or with tracing disabled) pass
// through untouched — the server never starts traces of its own, so an
// untraced client costs the server one header lookup.
func continueTrace(opts *ServerOptions, r *http.Request, name string) (*http.Request, *trace.Span) {
	hv := r.Header.Get(trace.HeaderName)
	if hv == "" {
		return r, nil
	}
	tr := opts.tracer()
	if !tr.Enabled() {
		return r, nil
	}
	sc, err := trace.ParseHeader(hv)
	if err != nil {
		return r, nil
	}
	span := tr.StartRemote(sc, name)
	if span == nil {
		return r, nil
	}
	return r.WithContext(trace.NewContext(r.Context(), span)), span
}

// exemplarID is the trace ID a latency observation should link to: only
// sampled spans, since an exemplar pointing at an unrecorded trace is a
// dead link.
func exemplarID(span *trace.Span) string {
	if span.Sampled() {
		return span.TraceID()
	}
	return ""
}

// handleOptions serves the option lists.
func (h *ifaceHandler) handleOptions(w http.ResponseWriter, r *http.Request) {
	cat := h.p.Catalog()
	resp := optionsResponse{
		Platform:     h.p.Name(),
		Attributes:   make([]string, len(cat.Attributes)),
		CrossFeature: !h.p.Rules().AndWithinFeature,
	}
	for i := range cat.Attributes {
		resp.Attributes[i] = cat.Attributes[i].Name
	}
	if len(cat.Topics) > 0 {
		resp.Topics = make([]string, len(cat.Topics))
		for i := range cat.Topics {
			resp.Topics[i] = cat.Topics[i].Name
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("adapi: writing options response: %v", err)
	}
}

// handleEstimate serves the advertiser door through the platform's context
// door, which joins the request's distributed trace when it carries one.
func (h *ifaceHandler) handleEstimate(w http.ResponseWriter, r *http.Request) {
	h.serveSize(w, r, h.p.EstimateCtx)
}

// handleMeasure serves the auditor door as a one-slot measure call: the
// store tier when one is configured, then the platform's batch door.
func (h *ifaceHandler) handleMeasure(w http.ResponseWriter, r *http.Request) {
	h.serveSize(w, r, func(ctx context.Context, req platform.EstimateRequest) (int64, error) {
		e := h.measure(ctx, []platform.EstimateRequest{req})[0]
		return e.Size, e.Err
	})
}

// readBody reads a request body up to MaxBodyBytes. It answers the request
// itself, and reports false, when the body cannot be read or is too large.
func (h *ifaceHandler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, h.opts.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "reading body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > h.opts.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, codeMalformedRequest, "body too large")
		return nil, false
	}
	return body, true
}

// serveSize decodes the dialect request, queries the platform under the
// request's context, and encodes the dialect response.
func (h *ifaceHandler) serveSize(w http.ResponseWriter, r *http.Request, query func(context.Context, platform.EstimateRequest) (int64, error)) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	req, err := h.codec.DecodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorCodeOrMalformed(err), err.Error())
		return
	}
	size, err := query(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(h.codec.AppendResponse(nil, size)); err != nil {
		log.Printf("adapi: writing response: %v", err)
	}
}

// errorCodeOrMalformed classifies decode errors, defaulting to malformed
// rather than internal.
func errorCodeOrMalformed(err error) string {
	if code := errorCode(err); code != codeInternal {
		return code
	}
	return codeMalformedRequest
}
