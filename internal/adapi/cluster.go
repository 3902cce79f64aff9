package adapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
)

// The cluster door is shard-to-coordinator plumbing, not a public platform
// dialect: requests and responses are plain JSON over the internal types,
// and raw counts cross the wire unscaled — scaling and rounding happen
// exactly once, at the coordinator (the merge-then-round invariant).

// codePartitionNotHeld is the wire code for cluster.ErrPartitionNotHeld:
// the coordinator's signal to re-address a partition through the ring.
const codePartitionNotHeld = "partition_not_held"

// ShardBackend is what the cluster door serves: one shard's raw-count
// batch evaluator. *cluster.Shard is the canonical implementation.
type ShardBackend interface {
	ID() string
	CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error)
}

var _ ShardBackend = (*cluster.Shard)(nil)

// countBatchRequest is the body of POST /cluster/count-batch.
type countBatchRequest struct {
	Interface  string                     `json:"interface"`
	Door       string                     `json:"door"`
	Partitions []uint32                   `json:"partitions"`
	Requests   []platform.EstimateRequest `json:"requests"`
}

// countSlot is one request's raw count, or its typed per-slot error.
type countSlot struct {
	Count int64 `json:"count"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// countBatchResponse echoes the serving shard's ID so a miswired conn is a
// hard error instead of a silently wrong partial sum.
type countBatchResponse struct {
	Shard   string      `json:"shard"`
	Results []countSlot `json:"results"`
}

// clusterErrorCode classifies a CountBatch call-level error.
func clusterErrorCode(err error) string {
	if errors.Is(err, cluster.ErrPartitionNotHeld) {
		return codePartitionNotHeld
	}
	return errorCode(err)
}

// registerClusterRoutes mounts the shard door when the server fronts a
// shard.
func (s *Server) registerClusterRoutes(backend ShardBackend) {
	iface := obs.L("interface", "cluster")
	door := obs.L("door", "count-batch")
	total := s.opts.Metrics.Counter("adapi_server_requests_total", iface, door)
	latency := s.opts.Metrics.Histogram("adapi_server_request_seconds", iface, door)
	s.mux.HandleFunc("/cluster/count-batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		total.Inc()
		var span *trace.Span
		start := time.Now()
		defer func() { latency.ObserveWithExemplar(time.Since(start), exemplarID(span)) }()

		body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, codeMalformedRequest, "reading body: "+err.Error())
			return
		}
		if int64(len(body)) > s.opts.MaxBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge, codeMalformedRequest, "body too large")
			return
		}
		var req countBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, codeMalformedRequest, "malformed count-batch request: "+err.Error())
			return
		}
		d, err := platform.ParseDoor(req.Door)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeMalformedRequest, err.Error())
			return
		}
		// The shard door continues the coordinator's trace: one span per
		// count-batch, tagged with the serving shard and the work shipped.
		r, span = continueTrace(&s.opts, r, "shard.count_batch")
		if span != nil {
			span.Annotate("shard", backend.ID())
			span.Annotate("interface", req.Interface)
			span.AnnotateInt("partitions", int64(len(req.Partitions)))
			span.AnnotateInt("specs", int64(len(req.Requests)))
			defer span.End()
		}
		res, err := backend.CountBatch(r.Context(), req.Interface, d, req.Partitions, req.Requests)
		span.SetError(err)
		if err != nil {
			writeError(w, http.StatusBadRequest, clusterErrorCode(err), err.Error())
			return
		}
		resp := countBatchResponse{Shard: backend.ID(), Results: make([]countSlot, len(res))}
		for i, rc := range res {
			if rc.Err != nil {
				resp.Results[i] = countSlot{Error: &struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				}{Code: errorCode(rc.Err), Message: rc.Err.Error()}}
				continue
			}
			resp.Results[i].Count = rc.Count
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			log.Printf("adapi: writing count-batch response: %v", err)
		}
	})
}

// ShardConn is the coordinator's HTTP connection to one remote shard. It
// implements cluster.Conn, so a multi-process cluster swaps in for the
// in-process one without the coordinator noticing.
type ShardConn struct {
	id   string
	base string
	hc   *http.Client
}

var (
	_ cluster.Conn          = (*ShardConn)(nil)
	_ cluster.CatalogHasher = (*ShardConn)(nil)
)

// NewShardConn connects shard id at baseURL (e.g. "http://host:8080").
// httpClient nil selects a default client; per-call deadlines come from the
// coordinator's context.
func NewShardConn(id, baseURL string, httpClient *http.Client) *ShardConn {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &ShardConn{id: id, base: baseURL, hc: httpClient}
}

// ID returns the shard's ring node name.
func (c *ShardConn) ID() string { return c.id }

// CatalogHash fetches the remote shard's catalog fingerprint from its
// health endpoint, implementing cluster.CatalogHasher so the coordinator's
// boot preflight covers multi-process rings: a shard that loaded a stale
// snapshot reports a divergent hash and the coordinator refuses to start.
// The fetch error is the shard being unreachable mid-boot — the preflight
// tolerates that and the first scattered batch fails over instead.
func (c *ShardConn) CatalogHash() (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("adapi: shard %s: %w", c.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("adapi: shard %s: healthz HTTP %d", c.id, resp.StatusCode)
	}
	var health struct {
		CatalogHash string `json:"catalog_hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return "", fmt.Errorf("adapi: shard %s: malformed healthz: %w", c.id, err)
	}
	if health.CatalogHash == "" {
		return "", fmt.Errorf("adapi: shard %s reports no catalog hash", c.id)
	}
	return health.CatalogHash, nil
}

// CountBatch ships the batch to the remote shard door and decodes the raw
// counts. A batch the shard refuses as too large (ErrBodyTooLarge) is split
// in halves, recursively, and the parts' slots concatenated. Any other
// transport or server-level failure is returned as a call error, which the
// coordinator treats as a shard failure and fails over.
func (c *ShardConn) CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	out, err := c.countBatch(ctx, iface, door, parts, reqs)
	if !errors.Is(err, ErrBodyTooLarge) || len(reqs) < 2 {
		return out, err
	}
	h := len(reqs) / 2
	lo, err := c.CountBatch(ctx, iface, door, parts, reqs[:h])
	if err != nil {
		return nil, err
	}
	hi, err := c.CountBatch(ctx, iface, door, parts, reqs[h:])
	if err != nil {
		return nil, err
	}
	return append(lo, hi...), nil
}

// countBatch is one count-batch exchange.
func (c *ShardConn) countBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	body, err := json.Marshal(countBatchRequest{
		Interface:  iface,
		Door:       door.String(),
		Partitions: parts,
		Requests:   reqs,
	})
	if err != nil {
		return nil, fmt.Errorf("adapi: encoding count-batch: %w", err)
	}
	url := c.base + "/cluster/count-batch"
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if hv := trace.FromContext(ctx).Context().Format(); hv != "" {
		httpReq.Header.Set(trace.HeaderName, hv)
	}
	httpResp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("adapi: shard %s: %w", c.id, err)
	}
	defer httpResp.Body.Close()
	respBody, err := readResponse(httpResp.Body, url)
	if err != nil {
		return nil, fmt.Errorf("adapi: shard %s: %w", c.id, err)
	}
	if httpResp.StatusCode == http.StatusRequestEntityTooLarge {
		return nil, fmt.Errorf("adapi: shard %s: %w: %d-byte body", c.id, ErrBodyTooLarge, len(body))
	}
	if httpResp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if json.Unmarshal(respBody, &env) == nil && env.Error.Code != "" {
			if env.Error.Code == codePartitionNotHeld {
				return nil, fmt.Errorf("adapi: shard %s: %w: %s", c.id, cluster.ErrPartitionNotHeld, env.Error.Message)
			}
			return nil, errorFromCode(env.Error.Code, env.Error.Message)
		}
		return nil, fmt.Errorf("adapi: shard %s: HTTP %d", c.id, httpResp.StatusCode)
	}
	var resp countBatchResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return nil, fmt.Errorf("adapi: shard %s: malformed count-batch response: %w", c.id, err)
	}
	if resp.Shard != c.id {
		return nil, fmt.Errorf("adapi: conn for shard %s reached shard %s — check the ring addresses", c.id, resp.Shard)
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("adapi: shard %s returned %d slots for %d requests", c.id, len(resp.Results), len(reqs))
	}
	out := make([]platform.RawCount, len(reqs))
	for i, slot := range resp.Results {
		if slot.Error != nil {
			out[i].Err = errorFromCode(slot.Error.Code, slot.Error.Message)
			continue
		}
		out[i].Count = slot.Count
	}
	return out, nil
}
