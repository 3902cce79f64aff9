package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// layers collects the traced run's boundary timings and counts. Wrappers
// sit at four boundaries — the provider under core's measurement cache, the
// HTTP client transport, the server handler, and each cluster shard conn —
// and take one timestamp pair per batch, exchange or shard call, only
// while on is set.
type layers struct {
	on atomic.Bool

	mu    sync.Mutex
	tally tally
	// scatter is the slowest shard call of the scatter in progress; the
	// Runner issues one upstream call at a time, so each provider call is
	// one scatter.
	scatter  time.Duration
	inflight int
	overlaps int64
	// largest is each interface's largest upstream batch of the campaign.
	largest map[string][]targeting.Spec
	// kept, when keep is set, is every upstream spec of the campaign per
	// interface, in the order core sent them.
	keep bool
	kept map[string][]targeting.Spec
}

// tally is one campaign's worth of boundary observations.
type tally struct {
	// Provider boundary (under core's cache).
	upCalls, upSpecs, upErrors int64
	maxBatch                   int64
	upBusy                     time.Duration
	// HTTP client transport and server handler.
	batchEx, serialEx, refused, reqBytes int64
	roundtrip, served                    time.Duration
	// Cluster shard conns.
	shardCalls            int64
	shardBusy, critical   time.Duration
	usefulUsers, localUsr int64
}

// start clears the tally and begins recording.
func (l *layers) start() {
	l.mu.Lock()
	l.tally = tally{}
	l.largest = map[string][]targeting.Spec{}
	l.kept = map[string][]targeting.Spec{}
	l.mu.Unlock()
	l.on.Store(true)
}

// stop ends recording and returns the tally and the largest batches.
func (l *layers) stop() (tally, map[string][]targeting.Spec) {
	l.on.Store(false)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tally, l.largest
}

func (l *layers) beginUpstream() time.Time {
	l.mu.Lock()
	l.inflight++
	if l.inflight > 1 {
		l.overlaps++
	}
	l.scatter = 0
	l.mu.Unlock()
	return time.Now()
}

func (l *layers) endUpstream(name string, start time.Time, specs []targeting.Spec, errs int64) {
	d := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	l.tally.upCalls++
	l.tally.upSpecs += int64(len(specs))
	l.tally.upErrors += errs
	l.tally.upBusy += d
	l.tally.critical += l.scatter
	if n := int64(len(specs)); n > l.tally.maxBatch {
		l.tally.maxBatch = n
	}
	if len(specs) > len(l.largest[name]) {
		l.largest[name] = specs
	}
	if l.keep {
		l.kept[name] = append(l.kept[name], specs...)
	}
}

func countErrs(res []core.BatchResult) int64 {
	n := int64(0)
	for _, r := range res {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// provider wraps p so that it exposes exactly the optional batch
// interfaces p does (every keyed provider also batches), keeping core on
// the same call path. The trace-context doors are not forwarded: core
// selects them only under a live trace span, and the benchmark runs with
// the process tracer disabled.
func (l *layers) provider(p core.Provider) core.Provider {
	t := &provTap{Provider: p, l: l}
	bm, ok := p.(core.BatchMeasurer)
	if !ok {
		return t
	}
	if km, ok := p.(core.KeyedBatchMeasurer); ok {
		return &keyedBatchTap{batchTap{t, bm}, km}
	}
	return &batchTap{t, bm}
}

type provTap struct {
	core.Provider
	l *layers
}

func (t *provTap) Measure(spec targeting.Spec) (int64, error) {
	if !t.l.on.Load() {
		return t.Provider.Measure(spec)
	}
	start := t.l.beginUpstream()
	v, err := t.Provider.Measure(spec)
	errs := int64(0)
	if err != nil {
		errs = 1
	}
	t.l.endUpstream(t.Name(), start, []targeting.Spec{spec}, errs)
	return v, err
}

func (t *provTap) batch(specs []targeting.Spec, call func() []core.BatchResult) []core.BatchResult {
	if !t.l.on.Load() {
		return call()
	}
	start := t.l.beginUpstream()
	res := call()
	t.l.endUpstream(t.Name(), start, specs, countErrs(res))
	return res
}

type batchTap struct {
	*provTap
	bm core.BatchMeasurer
}

func (t *batchTap) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	return t.batch(specs, func() []core.BatchResult { return t.bm.MeasureMany(specs) })
}

type keyedBatchTap struct {
	batchTap
	km core.KeyedBatchMeasurer
}

func (t *keyedBatchTap) MeasureManyKeyed(specs []targeting.Spec, keys []string) []core.BatchResult {
	return t.batch(specs, func() []core.BatchResult { return t.km.MeasureManyKeyed(specs, keys) })
}

// transport wraps the HTTP client's transport. An exchange lasts from the
// request until the client closes the response body, which the adapi
// client does after reading it in full.
func (l *layers) transport(rt http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !l.on.Load() {
			return rt.RoundTrip(req)
		}
		start := time.Now()
		batch := strings.HasSuffix(req.URL.Path, "/measure-batch")
		size := req.ContentLength
		resp, err := rt.RoundTrip(req)
		if err != nil {
			l.exchange(batch, size, false, time.Since(start))
			return nil, err
		}
		ok := resp.StatusCode >= 200 && resp.StatusCode < 300
		resp.Body = &bodyTap{ReadCloser: resp.Body, done: func() {
			l.exchange(batch, size, ok, time.Since(start))
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

type bodyTap struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *bodyTap) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (l *layers) exchange(batch bool, size int64, ok bool, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if batch {
		l.tally.batchEx++
	} else {
		l.tally.serialEx++
	}
	if !ok {
		l.tally.refused++
	}
	if size > 0 {
		l.tally.reqBytes += size
	}
	l.tally.roundtrip += d
}

// handler wraps the server's root handler.
func (l *layers) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		l.mu.Lock()
		l.tally.served += d
		l.mu.Unlock()
	})
}

// conn wraps one in-process shard, exposing cluster.CatalogHasher exactly
// when the shard does.
func (l *layers) conn(c cluster.Conn, layout *cluster.Layout) cluster.Conn {
	local := int64(0)
	for _, p := range layout.HeldPartitions(c.ID()) {
		local += int64(layout.Span(p).Len())
	}
	t := &connTap{Conn: c, l: l, layout: layout, local: local}
	if h, ok := c.(cluster.CatalogHasher); ok {
		return &hashedConnTap{t, h}
	}
	return t
}

type connTap struct {
	cluster.Conn
	l      *layers
	layout *cluster.Layout
	local  int64
}

// CountBatch records the call's duration, the users of the requested
// partitions, and the shard's local users, all of which a shard evaluates
// into its dense scratch set before counting the requested windows.
func (c *connTap) CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	if !c.l.on.Load() {
		return c.Conn.CountBatch(ctx, iface, door, parts, reqs)
	}
	start := time.Now()
	res, err := c.Conn.CountBatch(ctx, iface, door, parts, reqs)
	d := time.Since(start)
	useful := int64(0)
	for _, p := range parts {
		useful += int64(c.layout.Span(p).Len())
	}
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	c.l.tally.shardCalls++
	c.l.tally.shardBusy += d
	c.l.tally.usefulUsers += useful
	c.l.tally.localUsr += c.local
	if d > c.l.scatter {
		c.l.scatter = d
	}
	return res, err
}

type hashedConnTap struct {
	*connTap
	h cluster.CatalogHasher
}

func (c *hashedConnTap) CatalogHash() (string, error) { return c.h.CatalogHash() }
