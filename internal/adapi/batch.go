package adapi

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// The envelope of POST /{platform}/measure-batch is {"requests":[…]}: an
// ordered list of auditor-door request bodies, each in the platform's own
// dialect — the same bytes POST /measure accepts, shipped together so one
// HTTP exchange (and one rate-limit token) answers the whole batch. The
// response, {"results":[…]}, is slot-for-slot parallel to it: each slot is
// {"body":<dialect response>} for a slot that succeeded, or
// {"error":{"code":…,"message":…}}, the endpoint's usual error envelope
// content, for one that failed.
var (
	batchRequestKeys  = []string{"requests"}
	batchResponseKeys = []string{"results"}
	batchSlotKeys     = []string{"body", "error"}
	batchErrorKeys    = []string{"code", "message"}
)

// decodeBatch walks a measure-batch envelope once, decoding each slot in
// place with the dialect's decoder: reqs holds the slots that decoded, in
// order, and errs holds every slot's decode error, nil for those. A slot
// that does not decode fails alone; a syntax error anywhere, or an envelope
// that is not {"requests":[…]}, fails the whole envelope.
func decodeBatch(codec Codec, body []byte) (reqs []platform.EstimateRequest, errs []error, err error) {
	cur := cursor{buf: body}
	var arena specArena
	cur.members(batchRequestKeys, func(int) {
		cur.elements(func() {
			req, err := codec.decodeRequest(&cur, &arena)
			if err == nil {
				reqs = append(reqs, req)
			}
			errs = append(errs, err)
		})
	})
	if err := cur.settle(nil); err != nil {
		return nil, nil, err
	}
	return reqs, errs, nil
}

// appendSlotError appends a response slot that carries a wire-coded error.
func appendSlotError(dst []byte, code, message string) []byte {
	dst = appendString(append(dst, `{"error":{"code":`...), code)
	dst = appendString(append(dst, `,"message":`...), message)
	return append(dst, "}}"...)
}

// appendResults appends a measure-batch response envelope, ending in a
// newline: slot i carries errs[i] when it did not decode, and otherwise the
// next of the estimates measured for the slots that did.
func appendResults(dst []byte, codec Codec, errs []error, sizes []platform.Estimate) []byte {
	dst = append(dst, `{"results":[`...)
	for _, err := range errs {
		dst = sep(dst)
		if err != nil {
			dst = appendSlotError(dst, errorCodeOrMalformed(err), err.Error())
			continue
		}
		e := sizes[0]
		sizes = sizes[1:]
		if e.Err != nil {
			dst = appendSlotError(dst, errorCode(e.Err), e.Err.Error())
			continue
		}
		dst = append(codec.AppendResponse(append(dst, `{"body":`...), e.Size), '}')
	}
	return append(dst, "]}\n"...)
}

// handleMeasureBatch serves the auditor door's batch endpoint. Each slot is
// decoded, measured, and encoded exactly as POST /measure would treat it:
// the decodable slots go through measure, the path /measure runs with one
// slot, so they reach the store tier and then the platform as one
// MeasureManyCtx call under the request's context. The in-process
// simulators answer them with single tiled passes over the universe, and a
// continued trace records the kernel and plan-compile spans.
func (h *ifaceHandler) handleMeasureBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	reqs, errs, err := decodeBatch(h.codec, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "malformed batch envelope: "+err.Error())
		return
	}
	// Only the well-formed slots go to the platform.
	out := appendResults(make([]byte, 0, 64+48*len(errs)), h.codec, errs, h.measure(r.Context(), reqs))
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(out); err != nil {
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
	reqBody, slots := encodeBatch(c.codec, specs, out)
	if len(slots) == 0 {
		return out
	}
	respBody, err := c.do(ctx, http.MethodPost, c.base+"/"+c.name+"/measure-batch", reqBody)
	if errors.Is(err, ErrBodyTooLarge) && len(slots) > 1 {
		// Oversized envelope: each half ships as its own batch (its own
		// child span, its own provenance), splitting again as needed.
		span.Annotate("path", "split")
		h := len(specs) / 2
		return append(c.MeasureManyCtx(ctx, specs[:h]), c.MeasureManyCtx(ctx, specs[h:])...)
	}
	if err == nil {
		err = c.decodeResults(respBody, specs, slots, out)
	}
	if err != nil {
		span.SetError(err)
		for _, i := range slots {
			out[i] = core.BatchResult{Err: err}
		}
		return out
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

// encodeBatch renders specs as a measure-batch request envelope. slots
// holds the spec index of each shipped request: a spec the dialect cannot
// encode ships nothing, and its encoder error lands in out.
func encodeBatch(codec Codec, specs []targeting.Spec, out []core.BatchResult) (body []byte, slots []int) {
	body = append(make([]byte, 0, 16+128*len(specs)), `{"requests":[`...)
	slots = make([]int, 0, len(specs))
	for i, spec := range specs {
		mark := len(body)
		var err error
		if body, err = codec.AppendRequest(sep(body), platform.EstimateRequest{Spec: spec}); err != nil {
			body = body[:mark]
			out[i].Err = err
			continue
		}
		slots = append(slots, i)
	}
	return append(body, "]}"...), slots
}

// decodeResults walks a measure-batch response envelope once into out: the
// k-th slot answers specs[slots[k]], and its dialect body is decoded where
// it lies. A slot whose body does not decode fails alone, with an error
// naming its spec's canonical key; a syntax error anywhere, an envelope
// that is not {"results":[…]} of slot objects, or a slot count other than
// len(slots) fails the whole exchange.
func (c *Client) decodeResults(body []byte, specs []targeting.Spec, slots []int, out []core.BatchResult) error {
	cur := cursor{buf: body}
	n := 0
	cur.members(batchResponseKeys, func(int) {
		cur.elements(func() {
			r, malformed := c.decodeSlot(&cur)
			if n < len(slots) {
				i := slots[n]
				if malformed {
					// Identify the slot by its spec's canonical key: batch
					// indices mean nothing to a caller that deduplicated or
					// reordered specs, while the canonical key names the
					// exact query that failed.
					r.Err = fmt.Errorf("adapi: malformed batch slot %s: %w", targeting.Canonical(specs[i]), r.Err)
				}
				out[i] = r
			}
			n++
		})
	})
	if err := cur.settle(nil); err != nil {
		return fmt.Errorf("adapi: malformed batch response: %w", err)
	}
	if n != len(slots) {
		return fmt.Errorf("adapi: batch response holds %d slots for %d requests", n, len(slots))
	}
	return nil
}

// errNoSlotBody marks a response slot with neither a body nor an error.
var errNoSlotBody = errors.New("adapi: batch slot has no body")

// decodeSlot reads one response slot: the size its body holds, or the error
// it carries, which wins over a body as it did when the slot was built.
// malformed reports an Err that says why the body did not decode.
func (c *Client) decodeSlot(cur *cursor) (r core.BatchResult, malformed bool) {
	var (
		hasBody, hasError bool
		code, message     []byte
	)
	cur.members(batchSlotKeys, func(i int) {
		switch {
		case i == 0: // body
			hasBody = true
			r.Size, r.Err = c.codec.decodeResponse(cur)
		case !cur.null(): // error
			hasError = true
			cur.members(batchErrorKeys, func(i int) {
				if i == 0 {
					code = cur.str()
				} else {
					message = cur.str()
				}
			})
		}
	})
	switch {
	case hasError:
		return core.BatchResult{Err: errorFromCode(string(code), string(message))}, false
	case !hasBody:
		return core.BatchResult{Err: errNoSlotBody}, true
	}
	return r, r.Err != nil
}
