package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers every non-negative int64 nanosecond value: bucket i
// holds observations whose bit length is i, i.e. durations in
// [2^(i-1), 2^i) ns, with bucket 0 holding exact zeros. Powers of two give
// ~±35% relative error per bucket — ample for latency quantiles — at a
// fixed 520-byte footprint and a single atomic add per observation.
const numBuckets = 64

// Histogram is a log2-bucketed latency histogram. Observe is wait-free
// (two atomic adds); quantiles are computed on demand from a bucket
// snapshot with linear interpolation inside the winning bucket.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64 // total observed nanoseconds
	ex      atomic.Pointer[Exemplar]
}

// Exemplar links a latency series to one concrete traced request, so a
// dashboard's `*_seconds` number can jump straight to the recorded trace
// that exhibits it.
type Exemplar struct {
	// TraceID is the linked trace, as /debug/traces addresses it.
	TraceID string
	// Value is the linked observation's duration.
	Value time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// ObserveWithExemplar records d and, when traceID is non-empty, retains it
// as the series' exemplar. Latest-sampled wins (the OpenMetrics
// convention), which also keeps the link pointing at a trace most likely
// still in the bounded trace buffer. One extra atomic store over Observe;
// untraced callers keep using Observe and pay nothing.
func (h *Histogram) ObserveWithExemplar(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID != "" {
		h.ex.Store(&Exemplar{TraceID: traceID, Value: d})
	}
}

// Exemplar returns the series' current exemplar (nil when none recorded).
func (h *Histogram) Exemplar() *Exemplar { return h.ex.Load() }

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64
	// Sum is the total of all observed durations.
	Sum time.Duration
	// P50, P95, P99 are interpolated quantiles (0 when Count is 0).
	P50, P95, P99 time.Duration
	// Exemplar links the series to its most recent traced observation
	// (nil when tracing is disabled or no sampled request has landed).
	Exemplar *Exemplar
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot captures the histogram's counts and headline quantiles. Buckets
// are read without a global lock, so a snapshot taken mid-burst may be off
// by in-flight observations — fine for monitoring, and the quantiles are
// computed from the same read so they are mutually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [numBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: total, Sum: time.Duration(h.sum.Load()), Exemplar: h.ex.Load()}
	if total == 0 {
		return snap
	}
	snap.P50 = quantile(&counts, total, 0.50)
	snap.P95 = quantile(&counts, total, 0.95)
	snap.P99 = quantile(&counts, total, 0.99)
	return snap
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// quantile locates the bucket holding the rank-q observation and
// interpolates linearly within its [2^(i-1), 2^i) range.
func quantile(counts *[numBuckets]int64, total int64, q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1) // 0-based fractional rank
	var cum int64
	for i := 0; i < numBuckets; i++ {
		if counts[i] == 0 {
			continue
		}
		lo := float64(cum)
		cum += counts[i]
		if rank < float64(cum) || cum == total {
			if i == 0 {
				return 0
			}
			bLo := float64(int64(1) << (i - 1))
			bHi := bLo * 2
			frac := (rank - lo) / float64(counts[i])
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return time.Duration(bLo + frac*(bHi-bLo))
		}
	}
	return 0
}
