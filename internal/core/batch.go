package core

import (
	"context"
	"slices"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// BatchResult is one slot of a batched measurement: the size or the error
// the equivalent serial Measure call would have returned. It is the
// platform's own slot type, so the in-process and cluster providers hand
// their platform's results up without a copy.
type BatchResult = platform.Estimate

// BatchMeasurer is the batch door every Provider carries: answer many
// measurement queries in one call. Implementations must be slot-for-slot
// equivalent to serial Measure — same sizes, same errors — differing only
// in evaluation cost. The in-process platform provider lowers a batch into
// the tiled counting kernel; the caching provider partitions it into
// cache/store hits and unique upstream misses; the adapi client ships it
// as one HTTP exchange; the cluster provider scatters it over the shards.
type BatchMeasurer interface {
	MeasureMany(specs []targeting.Spec) []BatchResult
}

// KeyedBatchMeasurer is a batch door that also takes each spec's canonical
// form (targeting.Canonical). Nothing in the program implements or probes
// it. The declaration is kept only because the benchmark's taps
// (perfbench) name it; it goes with the next change to the benchmark.
type KeyedBatchMeasurer interface {
	MeasureManyKeyed(specs []targeting.Spec, keys []string) []BatchResult
}

// MeasureMany implements BatchMeasurer for the in-process simulators via
// the platform's tiled batch door.
func (pp *platformProvider) MeasureMany(specs []targeting.Spec) []BatchResult {
	return pp.measureMany(nil, specs)
}

// MeasureManyCtx implements ContextBatchMeasurer.
func (pp *platformProvider) MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []BatchResult {
	return pp.measureMany(ctx, specs)
}

func (pp *platformProvider) measureMany(ctx context.Context, specs []targeting.Spec) []BatchResult {
	var reqBuf [1]platform.EstimateRequest
	reqs := append(reqBuf[:0], make([]platform.EstimateRequest, len(specs))...)
	for i, s := range specs {
		reqs[i].Spec = s
	}
	if ctx != nil {
		return pp.p.MeasureManyCtx(ctx, reqs)
	}
	return pp.p.MeasureMany(reqs)
}

// MeasureMany implements BatchMeasurer for the caching provider.
func (cp *cachingProvider) MeasureMany(specs []targeting.Spec) []BatchResult {
	return cp.measureMany(nil, specs, nil)
}

// measureMany is the cache's one body: MeasureMany, Measure (one slot) and
// the auditor's measurements all run it. Under one lock acquisition the
// batch is partitioned in slot order into memory hits, waits on an
// in-flight miss of the same key (another caller's, or an earlier slot of
// this batch: either way the slot collapses onto one upstream call), store
// hits (filling the memory tier, no upstream call), and claimed misses.
// Only the claimed misses are counted as upstream calls and sent upstream
// as one batch, in claim order, with one latency observation; their
// answers are persisted before being published, and failed slots are
// refunded. The canonical keys are computed before the lock is taken, so
// the lock covers only the table reads. The results go into buf when it
// has room: a one-slot caller passes a stack array, and the partition's
// own lists start on the stack, so a one-slot hit allocates only its
// canonical key.
//
// Under a live span the call records a cache.measure_many span with the
// partition's counts, and provenance for the slots the cache itself serves
// (memory hits, store hits, and waits); claimed misses are recorded by the
// upstream layer that measures them. A traced call whose every slot failed
// carries the first slot's error.
func (cp *cachingProvider) measureMany(parent *trace.Span, specs []targeting.Spec, buf []BatchResult) []BatchResult {
	out := append(buf[:0], make([]BatchResult, len(specs))...)
	if len(specs) == 0 {
		return out
	}
	span := trace.ChildOf(parent, "cache.measure_many")
	type claim struct {
		slot int
		key  string
		call *inflightCall
	}
	var keyBuf [1]string
	var claimBuf [1]claim
	var waitBuf [1]claim // the in-flight call this slot waits on
	keys := append(keyBuf[:0], make([]string, len(specs))...)
	claims, waits := claimBuf[:0], waitBuf[:0]
	var hits, collapsed, storeHits int64
	var done chan struct{} // closed once this call's claims are answered

	plog := span.ProvenanceLog()
	var prov []trace.Provenance

	for i, spec := range specs {
		keys[i] = targeting.Canonical(spec)
	}
	cp.mu.Lock()
	for i, key := range keys {
		if v, ok := cp.sizes[key]; ok {
			out[i].Size = v
			hits++
			if plog != nil {
				prov = append(prov, trace.Provenance{Key: key, Source: "cache", Value: v})
			}
			continue
		}
		if c, ok := cp.inflight[key]; ok {
			waits = append(waits, claim{slot: i, key: key, call: c})
			collapsed++
			continue
		}
		if cp.store != nil {
			// Disk tier: an answer a previous run already paid for. It
			// fills the memory tier and makes no upstream call — the
			// paper's §5 limit counts load placed on the platform, and a
			// disk hit places none. The lookup is an in-memory index read,
			// so holding the lock keeps racing callers collapsed onto one
			// store probe.
			if v, ok := cp.store.GetMeasurement(cp.Provider.Name(), key); ok {
				cp.sizes[key] = v
				out[i].Size = v
				storeHits++
				if plog != nil {
					prov = append(prov, trace.Provenance{Key: key, Source: "store", Value: v})
				}
				continue
			}
		}
		// Claim the key and count the call before releasing the lock, so
		// racing callers of the same key collapse onto this one.
		cp.calls++
		if done == nil {
			done = make(chan struct{})
		}
		c := &inflightCall{done: done}
		cp.inflight[key] = c
		claims = append(claims, claim{slot: i, key: key, call: c})
	}
	cp.mu.Unlock()

	cp.mHits.Add(hits)
	cp.mCollapsed.Add(collapsed)
	cp.mMisses.Add(int64(len(claims)))
	if cp.store != nil {
		cp.mStoreHits.Add(storeHits)
		cp.mStoreMisses.Add(int64(len(claims)))
	}
	if span != nil {
		defer span.End()
		span.AnnotateInt("specs", int64(len(specs)))
		span.AnnotateInt("hits", hits)
		span.AnnotateInt("store_hits", storeHits)
		span.AnnotateInt("collapsed", collapsed)
		span.AnnotateInt("misses", int64(len(claims)))
	}

	if len(claims) > 0 {
		missSpecs := make([]targeting.Spec, len(claims))
		for k, cl := range claims {
			missSpecs[k] = specs[cl.slot]
		}
		start := time.Now()
		// The traced batch door is optional and taken only under a span.
		var res []BatchResult
		if cbm, ok := cp.Provider.(ContextBatchMeasurer); ok && span != nil {
			res = cbm.MeasureManyCtx(spanContext(span), missSpecs)
		} else {
			res = cp.Provider.MeasureMany(missSpecs)
		}
		// One observation per upstream exchange (the batch is the unit of
		// upstream latency, as one HTTP round trip serves the whole batch).
		cp.mUpstream.ObserveWithExemplar(time.Since(start), span.TraceID())

		if cp.store != nil {
			// Persist before publishing: once another caller can read the
			// answer from memory, a crash must not be able to lose it — the
			// resumed run would otherwise re-query a spec this run already
			// reported on. Append failures (disk full, torn device) are
			// counted but do not fail the measurement; the audit degrades
			// to in-memory caching.
			for k, cl := range claims {
				if res[k].Err != nil {
					continue
				}
				if serr := cp.store.PutMeasurement(cp.Provider.Name(), cl.key, res[k].Size); serr != nil {
					cp.mStoreErrors.Inc()
				}
			}
		}

		cp.mu.Lock()
		for k, cl := range claims {
			if res[k].Err == nil {
				cp.sizes[cl.key] = res[k].Size
			} else {
				// Refund failed calls: they consumed no upstream answer.
				cp.calls--
				res[k].Size = 0
			}
			delete(cp.inflight, cl.key)
		}
		cp.mu.Unlock()
		for k, cl := range claims {
			cl.call.v, cl.call.err = res[k].Size, res[k].Err
			out[cl.slot] = res[k]
		}
		close(done)
	}

	// This batch's own claims are answered by now, so only another
	// caller's miss can still block a wait.
	for _, w := range waits {
		<-w.call.done
		out[w.slot] = BatchResult{Size: w.call.v, Err: w.call.err}
		if plog != nil && w.call.err == nil {
			prov = append(prov, trace.Provenance{Key: w.key, Source: "inflight", Value: w.call.v})
		}
	}
	if span != nil {
		tid, name := span.TraceID(), cp.Provider.Name()
		for i := range prov {
			prov[i].Platform, prov[i].TraceID = name, tid
			plog.Add(prov[i])
		}
		if slices.IndexFunc(out, func(r BatchResult) bool { return r.Err == nil }) < 0 {
			span.SetError(out[0].Err)
		}
	}
	return out
}
