package core

import (
	"context"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// BatchResult is one slot of a batched measurement: the size or the error
// the equivalent serial Measure call would have returned.
type BatchResult struct {
	Size int64
	Err  error
}

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
	reqs := make([]platform.EstimateRequest, len(specs))
	for i, s := range specs {
		reqs[i].Spec = s
	}
	var ests []platform.Estimate
	var err error
	if ctx != nil {
		ests, err = pp.p.MeasureManyCtx(ctx, reqs)
	} else {
		ests, err = pp.p.MeasureMany(reqs)
	}
	out := make([]BatchResult, len(specs))
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i, e := range ests {
		out[i] = BatchResult{Size: e.Size, Err: e.Err}
	}
	return out
}

// MeasureMany implements BatchMeasurer for the caching provider. Under one
// lock acquisition the batch is partitioned exactly as serial Measure
// would treat each spec in slot order: memory hits, waits on another
// caller's in-flight miss, duplicates of a key this batch already claimed,
// store hits (filling the memory tier, no upstream call), and claimed
// misses. Only the unique misses are counted as upstream calls and sent
// upstream as one batch, in claim order, then persisted before being
// published, with failed slots refunded, exactly like the serial path.
func (cp *cachingProvider) MeasureMany(specs []targeting.Spec) []BatchResult {
	return cp.measureMany(nil, specs)
}

func (cp *cachingProvider) measureMany(parent *trace.Span, specs []targeting.Spec) []BatchResult {
	out := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return out
	}
	span := trace.ChildOf(parent, "cache.measure_many")
	type claim struct {
		slot int
		key  string
		call *inflightCall
	}
	type wait struct {
		slot int
		call *inflightCall
	}
	type dup struct {
		slot, of int // slot copies the result of claim index `of`
	}
	var claims []claim
	var waits []wait
	var dups []dup
	claimIdx := make(map[string]int)
	var hits, collapsed, storeHits int64

	// Provenance for the slots the cache itself serves (memory/store hits);
	// claimed misses are recorded by the upstream layer that measures them,
	// and collapsed slots by the trace that owns the in-flight call.
	plog := span.ProvenanceLog()
	var prov []trace.Provenance

	cp.mu.Lock()
	for i, spec := range specs {
		key := targeting.Canonical(spec)
		if v, ok := cp.sizes[key]; ok {
			out[i].Size = v
			hits++
			if plog != nil {
				prov = append(prov, trace.Provenance{Key: key, Source: "cache", Value: v})
			}
			continue
		}
		if ci, ok := claimIdx[key]; ok {
			// A duplicate within this batch: the claim's upstream answer
			// serves this slot too, like a second caller collapsing onto an
			// in-flight miss.
			dups = append(dups, dup{slot: i, of: ci})
			collapsed++
			continue
		}
		if c, ok := cp.inflight[key]; ok {
			waits = append(waits, wait{slot: i, call: c})
			collapsed++
			continue
		}
		if cp.store != nil {
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
		cp.calls++
		c := &inflightCall{done: make(chan struct{})}
		cp.inflight[key] = c
		claimIdx[key] = len(claims)
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
		if plog != nil {
			tid := span.TraceID()
			name := cp.Provider.Name()
			for i := range prov {
				prov[i].Platform = name
				prov[i].TraceID = tid
				plog.Add(prov[i])
			}
		}
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
			// Persist before publishing, as in the serial path: once a
			// result is readable from memory a crash must not lose it.
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
				// Refund failed calls, matching serial accounting.
				cp.calls--
				res[k].Size = 0
			}
			delete(cp.inflight, cl.key)
		}
		cp.mu.Unlock()
		for k, cl := range claims {
			cl.call.v, cl.call.err = res[k].Size, res[k].Err
			close(cl.call.done)
			out[cl.slot] = BatchResult{Size: res[k].Size, Err: res[k].Err}
		}
	}

	for _, d := range dups {
		out[d.slot] = out[claims[d.of].slot]
	}
	for _, w := range waits {
		<-w.call.done
		out[w.slot] = BatchResult{Size: w.call.v, Err: w.call.err}
	}
	return out
}
