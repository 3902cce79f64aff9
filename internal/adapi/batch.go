package adapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// batchRequest is the envelope of POST /{platform}/measure-batch: an ordered
// list of auditor-door request bodies, each in the platform's own dialect —
// the same bytes POST /measure accepts, shipped together so one HTTP
// exchange (and one rate-limit token) answers the whole batch.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// batchSlot is one slot of the batch response: the dialect response body for
// a slot that succeeded, or the endpoint's usual error envelope content for
// one that failed. Exactly one of the two fields is set.
type batchSlot struct {
	Body  json.RawMessage `json:"body,omitempty"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// batchResponse is the envelope of a measure-batch response, slot-for-slot
// parallel to the request list.
type batchResponse struct {
	Results []batchSlot `json:"results"`
}

// slotError fills a response slot with a wire-coded error.
func slotError(code, message string) batchSlot {
	var s batchSlot
	s.Error = &struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}{Code: code, Message: message}
	return s
}

// handleMeasureBatch serves the auditor door's batch endpoint. Each slot is
// decoded, measured, and encoded exactly as POST /measure would treat it:
// the decodable slots go through measure, the path /measure runs with one
// slot, so they reach the store tier and then the platform as one
// MeasureManyCtx call under the request's context. The in-process
// simulators answer them with single tiled passes over the universe, and a
// continued trace records the kernel and plan-compile spans.
func (h *ifaceHandler) handleMeasureBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, h.opts.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > h.opts.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, codeMalformedRequest, "body too large")
		return
	}
	var env batchRequest
	if err := json.Unmarshal(body, &env); err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "malformed batch envelope: "+err.Error())
		return
	}

	results := make([]batchSlot, len(env.Requests))
	// Decode every slot first; only the well-formed ones go to the platform.
	reqs := make([]platform.EstimateRequest, 0, len(env.Requests))
	slots := make([]int, 0, len(env.Requests))
	for i, raw := range env.Requests {
		req, err := h.codec.DecodeRequest(raw)
		if err != nil {
			results[i] = slotError(errorCodeOrMalformed(err), err.Error())
			continue
		}
		reqs = append(reqs, req)
		slots = append(slots, i)
	}

	sizes := h.measure(r.Context(), reqs)
	for k, i := range slots {
		if serr := sizes[k].Err; serr != nil {
			results[i] = slotError(errorCode(serr), serr.Error())
			continue
		}
		respBody, err := h.codec.EncodeResponse(sizes[k].Size)
		if err != nil {
			results[i] = slotError(codeInternal, err.Error())
			continue
		}
		results[i] = batchSlot{Body: respBody}
	}

	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(batchResponse{Results: results}); err != nil {
		log.Printf("adapi: writing batch response: %v", err)
	}
}

// Client implements core.Provider: batches ship as one HTTP exchange.
var _ core.Provider = (*Client)(nil)

// MeasureMany implements core.BatchMeasurer over the wire: the specs are
// encoded in the platform's dialect and shipped as one POST /measure-batch
// exchange, costing one rate-limit token and one round trip for the whole
// batch. Each slot carries the size or the typed error the equivalent
// serial Measure call would have produced; a spec the dialect cannot
// encode fails its own slot and the rest still ship. A batch whose envelope
// exceeds the server's body limit is split in halves until each part fits.
// An exchange that fails after its retries, or whose response cannot be
// aligned with the request, fails every shipped slot with that error.
func (c *Client) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	return c.MeasureManyCtx(context.Background(), specs)
}

// MeasureManyCtx implements core.ContextBatchMeasurer: MeasureMany with
// caller-controlled cancellation. A trace span riding the context records
// the exchange as one child span (the batch is one wire exchange) and
// propagates the trace to the server.
func (c *Client) MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []core.BatchResult {
	out := make([]core.BatchResult, len(specs))
	if len(specs) == 0 {
		return out
	}
	span := trace.ChildOf(trace.FromContext(ctx), "adapi.client_batch")
	if span != nil {
		defer span.End()
		span.Annotate("endpoint", c.base)
		span.AnnotateInt("specs", int64(len(specs)))
		ctx = trace.NewContext(ctx, span)
	}
	env := batchRequest{Requests: make([]json.RawMessage, 0, len(specs))}
	slots := make([]int, 0, len(specs)) // the spec index of each shipped request
	for i, spec := range specs {
		body, err := c.codec.EncodeRequest(platform.EstimateRequest{Spec: spec})
		if err != nil {
			out[i].Err = err
			continue
		}
		env.Requests = append(env.Requests, body)
		slots = append(slots, i)
	}
	if len(slots) == 0 {
		return out
	}
	reqBody, err := json.Marshal(env)
	var respBody []byte
	if err == nil {
		respBody, err = c.do(ctx, http.MethodPost, c.base+"/"+c.name+"/measure-batch", reqBody)
	}
	if errors.Is(err, ErrBodyTooLarge) && len(slots) > 1 {
		// Oversized envelope: each half ships as its own batch (its own
		// child span, its own provenance), splitting again as needed.
		span.Annotate("path", "split")
		h := len(specs) / 2
		return append(c.MeasureManyCtx(ctx, specs[:h]), c.MeasureManyCtx(ctx, specs[h:])...)
	}
	var resp batchResponse
	if err == nil {
		if err = json.Unmarshal(respBody, &resp); err != nil {
			err = fmt.Errorf("adapi: malformed batch response: %w", err)
		} else if len(resp.Results) != len(slots) {
			err = fmt.Errorf("adapi: batch response holds %d slots for %d requests", len(resp.Results), len(slots))
		}
	}
	if err != nil {
		span.SetError(err)
		for _, i := range slots {
			out[i].Err = err
		}
		return out
	}
	for k, slot := range resp.Results {
		i := slots[k]
		if slot.Error != nil {
			out[i].Err = errorFromCode(slot.Error.Code, slot.Error.Message)
			continue
		}
		out[i].Size, out[i].Err = c.codec.DecodeResponse(slot.Body)
		if out[i].Err != nil {
			// Identify the slot by its spec's canonical key: batch indices
			// mean nothing to a caller that deduplicated or reordered specs,
			// while the canonical key names the exact query that failed.
			out[i].Err = fmt.Errorf("adapi: malformed batch slot %s: %w", targeting.Canonical(specs[i]), out[i].Err)
		}
	}
	if plog := span.ProvenanceLog(); plog != nil {
		tid := span.TraceID()
		for i := range out {
			if out[i].Err != nil {
				continue
			}
			plog.Add(trace.Provenance{
				Platform: c.name,
				Key:      targeting.Canonical(specs[i]),
				Source:   "remote",
				Endpoint: c.base,
				TraceID:  tid,
				Value:    out[i].Size,
			})
		}
	}
	return out
}
