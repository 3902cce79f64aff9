package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/targeting"
)

// Conn is one shard as the coordinator sees it. In-process clusters pass
// *Shard directly; multi-process clusters pass an adapi-backed conn that
// ships the same call over HTTP. A Conn must be safe for concurrent use.
type Conn interface {
	// ID returns the shard's ring node name.
	ID() string
	// CountBatch returns the batch's raw matched-user counts over the
	// listed partitions, mirroring Shard.CountBatch.
	CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error)
}

// CatalogHasher is the optional Conn extension the coordinator's preflight
// uses: a conn that can report its shard's catalog hash (Shard implements it
// directly; the adapi conn reads it from the shard's health endpoint).
type CatalogHasher interface {
	CatalogHash() (string, error)
}

// ErrPartial marks a scatter-gather result that could not cover the whole
// universe: some partitions had no reachable owner. Callers match it with
// errors.Is.
var ErrPartial = errors.New("cluster: partial result")

// ErrCatalogSkew marks a ring whose shards do not all serve the coordinator's
// catalog — e.g. one node loaded a snapshot built from a different seed or an
// older catalog generator. Mixed rings are refused at construction: summing
// raw counts across divergent catalogs would silently answer for the wrong
// options.
var ErrCatalogSkew = errors.New("cluster: shard catalog differs from coordinator")

// PartialError reports the partitions no live shard could serve after
// replica failover, with the last shard failure as the cause. Results are
// withheld rather than under-counted: a partial sum scaled and rounded
// would be silently wrong, the one outcome the equivalence battery exists
// to prevent.
type PartialError struct {
	// Partitions lists the unserved global partitions, ascending.
	Partitions []uint32
	// Cause is the last underlying shard failure.
	Cause error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("cluster: %d partitions unserved after failover (first %d): %v",
		len(e.Partitions), e.Partitions[0], e.Cause)
}

func (e *PartialError) Is(target error) bool { return target == ErrPartial }

func (e *PartialError) Unwrap() error { return e.Cause }

// DefaultShardTimeout bounds one shard attempt.
const DefaultShardTimeout = 15 * time.Second

// Options assembles a Coordinator.
type Options struct {
	// Layout is the cluster's partition map; required.
	Layout *Layout
	// Conns are the shard connections, one per ring node; required to
	// cover every node.
	Conns []Conn
	// Deploy carries the deployment parameters the shards were built with
	// (seed, ablation knobs, ...). The coordinator builds a zero-user
	// metadata deployment from it — catalogs, rules, rounders, and
	// objectives with nobody in them — so validation and scaling are
	// decided once, coordinator-side, exactly as a single node would.
	// UniverseSize and ShardSpans are overridden.
	Deploy platform.DeployOptions
	// Timeout bounds each shard attempt; 0 selects DefaultShardTimeout,
	// negative disables the deadline.
	Timeout time.Duration
	// Retries is how many times a failed shard call is retried on the same
	// shard before its partitions fail over to replicas.
	Retries int
	// Metrics receives the coordinator's per-shard counters; nil selects
	// obs.Default().
	Metrics *obs.Registry
}

// shardMetrics are the coordinator-side counters for one shard, labeled
// shard=<id> so the scatter path's health is visible per node.
type shardMetrics struct {
	requests   *obs.Counter   // cluster_shard_requests_total
	failures   *obs.Counter   // cluster_shard_failures_total
	reassigned *obs.Counter   // cluster_partitions_reassigned_total (moved OFF this shard)
	latency    *obs.Histogram // cluster_shard_seconds
}

// Coordinator fans batches out to shards, sums raw counts, and applies
// scaling and rounding once. It is safe for concurrent use: all state is
// immutable after construction and per-call bookkeeping is local.
type Coordinator struct {
	layout  *Layout
	conns   map[string]Conn
	meta    *platform.Deployment
	timeout time.Duration
	retries int

	mBatches   *obs.Counter
	mFailovers *obs.Counter
	mPartial   *obs.Counter
	mBatchSize *obs.Histogram
	perShard   map[string]*shardMetrics
}

// NewCoordinator builds a coordinator over the given shard connections.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.Layout == nil {
		return nil, errors.New("cluster: coordinator needs a layout")
	}
	conns := make(map[string]Conn, len(opts.Conns))
	for _, cn := range opts.Conns {
		if _, dup := conns[cn.ID()]; dup {
			return nil, fmt.Errorf("cluster: duplicate conn for shard %q", cn.ID())
		}
		conns[cn.ID()] = cn
	}
	for _, n := range opts.Layout.Ring().Nodes() {
		if _, ok := conns[n]; !ok {
			return nil, fmt.Errorf("cluster: no conn for ring node %q", n)
		}
	}
	dopts := opts.Deploy
	dopts.UniverseSize = opts.Layout.UniverseSize()
	dopts.ShardSpans = []population.Span{} // non-nil, empty: zero users
	meta, err := platform.NewDeployment(dopts)
	if err != nil {
		return nil, fmt.Errorf("cluster: metadata deployment: %w", err)
	}
	// Preflight: every conn that can report a catalog hash must match the
	// metadata deployment's. Fetch failures are tolerated (a remote shard may
	// be mid-boot; the scatter path will retry it), but a *divergent* answer
	// is a configuration error no retry fixes, so it refuses construction.
	wantHash := platform.CatalogHash(meta)
	for id, cn := range conns {
		h, ok := cn.(CatalogHasher)
		if !ok {
			continue
		}
		got, err := h.CatalogHash()
		if err != nil {
			continue
		}
		if got != wantHash {
			return nil, fmt.Errorf("%w: shard %s serves catalog %.12s, coordinator derives %.12s",
				ErrCatalogSkew, id, got, wantHash)
		}
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultShardTimeout
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	c := &Coordinator{
		layout:     opts.Layout,
		conns:      conns,
		meta:       meta,
		timeout:    timeout,
		retries:    opts.Retries,
		mBatches:   reg.Counter("cluster_batches_total"),
		mFailovers: reg.Counter("cluster_failovers_total"),
		mPartial:   reg.Counter("cluster_partial_results_total"),
		mBatchSize: reg.Histogram("cluster_batch_size_specs"),
		perShard:   make(map[string]*shardMetrics, len(conns)),
	}
	for id := range conns {
		lbl := obs.L("shard", id)
		c.perShard[id] = &shardMetrics{
			requests:   reg.Counter("cluster_shard_requests_total", lbl),
			failures:   reg.Counter("cluster_shard_failures_total", lbl),
			reassigned: reg.Counter("cluster_partitions_reassigned_total", lbl),
			latency:    reg.Histogram("cluster_shard_seconds", lbl),
		}
	}
	return c, nil
}

// Layout returns the cluster's partition map.
func (c *Coordinator) Layout() *Layout { return c.layout }

// Metadata returns the coordinator's zero-user deployment: the cluster's
// catalogs, rules, and rounders without its users.
func (c *Coordinator) Metadata() *platform.Deployment { return c.meta }

// MeasureMany answers a batch through the auditor door, bit-identically to
// a single-node Interface.MeasureMany over the full universe. A non-nil
// error is a cluster failure (ErrPartial after failover exhausted); per-
// request failures stay in their slots, as on a single node.
func (c *Coordinator) MeasureMany(iface string, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
	return c.sizeMany(context.Background(), iface, platform.DoorMeasure, reqs)
}

// MeasureManyCtx is MeasureMany under a trace context: the scatter-gather
// records one span per shard attempt (shard ID, failover round, outcome)
// and the trace rides the X-Adaudit-Trace header to every remote shard
// door. Tracing never alters the counts — traced and untraced batches are
// bit-identical.
func (c *Coordinator) MeasureManyCtx(ctx context.Context, iface string, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
	return c.sizeMany(ctx, iface, platform.DoorMeasure, reqs)
}

// EstimateMany is MeasureMany through the advertiser door.
func (c *Coordinator) EstimateMany(iface string, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
	return c.sizeMany(context.Background(), iface, platform.DoorEstimate, reqs)
}

// Measure answers one auditor-door query.
func (c *Coordinator) Measure(iface string, req platform.EstimateRequest) (int64, error) {
	return c.one(iface, platform.DoorMeasure, req)
}

// Estimate answers one advertiser-door query.
func (c *Coordinator) Estimate(iface string, req platform.EstimateRequest) (int64, error) {
	return c.one(iface, platform.DoorEstimate, req)
}

func (c *Coordinator) one(iface string, door platform.Door, req platform.EstimateRequest) (int64, error) {
	out, err := c.sizeMany(context.Background(), iface, door, []platform.EstimateRequest{req})
	if err != nil {
		return 0, err
	}
	if out[0].Err != nil {
		return 0, out[0].Err
	}
	return out[0].Size, nil
}

// sizeMany is the scatter-gather core: validate and resolve scaling factors
// once on the metadata interface (the same checks, in the same order, as
// the single-node batch path), fan the param-valid slots out to the
// shards, sum raw counts per slot, and scale-and-round each sum exactly
// once.
func (c *Coordinator) sizeMany(ctx context.Context, iface string, door platform.Door, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
	p, err := c.meta.ByName(iface)
	if err != nil {
		return nil, err
	}
	out := make([]platform.Estimate, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	span := trace.ChildOf(trace.FromContext(ctx), "cluster.size_many")
	if span != nil {
		defer span.End()
		span.Annotate("interface", iface)
		span.Annotate("door", door.String())
		span.AnnotateInt("specs", int64(len(reqs)))
	}
	c.mBatches.Inc()
	c.mBatchSize.Observe(time.Duration(len(reqs)))

	eligible := make([]float64, len(reqs))
	impressions := make([]float64, len(reqs))
	valid := make([]int, 0, len(reqs))
	for i := range reqs {
		e, f, err := p.QueryParams(door, reqs[i])
		if err != nil {
			out[i].Err = err
			continue
		}
		eligible[i], impressions[i] = e, f
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return out, nil
	}
	sub := make([]platform.EstimateRequest, len(valid))
	for k, i := range valid {
		sub[k] = reqs[i]
	}

	counts, slotErrs, stats, err := c.scatterGather(span, iface, door, sub)
	if span != nil {
		span.AnnotateInt("failover_rounds", int64(stats.rounds))
		span.AnnotateInt("shards", int64(len(stats.shards)))
	}
	if err != nil {
		span.SetError(err)
		// A withheld partial batch still leaves provenance: which shards
		// answered, how many failover rounds ran, and that the result was
		// refused rather than under-counted.
		if plog := span.ProvenanceLog(); plog != nil {
			plog.Add(trace.Provenance{
				Platform:       iface,
				Source:         "cluster",
				Shards:         stats.shards,
				FailoverRounds: stats.rounds,
				Partial:        true,
				TraceID:        span.TraceID(),
			})
		}
		return out, err
	}
	plog := span.ProvenanceLog()
	for k, i := range valid {
		if slotErrs[k] != nil {
			out[i].Err = slotErrs[k]
			continue
		}
		out[i].Size = p.ScaleAndRound(counts[k], eligible[i], impressions[i])
		if plog != nil {
			key := targeting.Canonical(reqs[i].Spec)
			plog.Add(trace.Provenance{
				Platform:       iface,
				Key:            key,
				Source:         "cluster",
				PlanHash:       trace.PlanHash(iface, door.String(), key),
				Shards:         stats.shards,
				FailoverRounds: stats.rounds,
				TraceID:        span.TraceID(),
				Value:          out[i].Size,
			})
		}
	}
	return out, nil
}

// scatterStats summarizes one scatter-gather for the batch's provenance:
// which shards contributed counts (sorted) and how many failover rounds ran
// beyond the primary scatter.
type scatterStats struct {
	shards []string
	rounds int
}

// scatterGather collects each slot's raw count summed over every partition,
// failing partitions over to ring replicas when their shard dies. Per-slot
// errors (spec shapes the shards reject) are deterministic across shards,
// so the first one reported wins and the slot's counts are discarded. A
// non-nil span records one child span per shard attempt; tracing observes
// the scatter but never steers it.
func (c *Coordinator) scatterGather(span *trace.Span, iface string, door platform.Door, reqs []platform.EstimateRequest) ([]int64, []error, scatterStats, error) {
	counts := make([]int64, len(reqs))
	slotErrs := make([]error, len(reqs))
	var stats scatterStats

	// Round 0: every partition goes to its primary.
	pending := make(map[string][]uint32)
	for _, id := range c.layout.Ring().Nodes() {
		if parts := c.layout.PrimaryPartitions(id); len(parts) > 0 {
			pending[id] = parts
		}
	}
	dead := make(map[string]bool)
	served := make(map[string]bool)
	var missing []uint32
	var lastErr error

	type shardResult struct {
		id    string
		parts []uint32
		res   []platform.RawCount
		err   error
	}
	round := 0
	for len(pending) > 0 {
		results := make(chan shardResult, len(pending))
		for id, parts := range pending {
			go func(id string, parts []uint32) {
				res, err := c.callShard(span, round, c.conns[id], iface, door, parts, reqs)
				results <- shardResult{id: id, parts: parts, res: res, err: err}
			}(id, parts)
		}
		next := make(map[string][]uint32)
		for range pending {
			r := <-results
			if r.err == nil {
				served[r.id] = true
				for k := range reqs {
					if r.res[k].Err != nil {
						if slotErrs[k] == nil {
							slotErrs[k] = r.res[k].Err
						}
						continue
					}
					counts[k] += r.res[k].Count
				}
				continue
			}
			// Shard failed: mark it dead and re-address each of its
			// partitions to the first live replica owner.
			lastErr = r.err
			dead[r.id] = true
			c.perShard[r.id].reassigned.Add(int64(len(r.parts)))
			c.mFailovers.Inc()
			for _, part := range r.parts {
				reassigned := false
				for _, owner := range c.layout.Owners(part) {
					if owner == r.id || dead[owner] {
						continue
					}
					next[owner] = append(next[owner], part)
					reassigned = true
					break
				}
				if !reassigned {
					missing = append(missing, part)
				}
			}
		}
		for id := range next {
			sort.Slice(next[id], func(i, j int) bool { return next[id][i] < next[id][j] })
		}
		pending = next
		round++
	}
	stats.rounds = round - 1
	stats.shards = make([]string, 0, len(served))
	for id := range served {
		stats.shards = append(stats.shards, id)
	}
	sort.Strings(stats.shards)
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		c.mPartial.Inc()
		return nil, nil, stats, &PartialError{Partitions: missing, Cause: lastErr}
	}
	return counts, slotErrs, stats, nil
}

// callShard runs one CountBatch with the per-attempt timeout, retrying on
// the same shard before the caller fails its partitions over. Each attempt
// records its own child span — shard ID, failover round, attempt number,
// and outcome (ok, retry, or failover) — and carries the trace context into
// the conn, so a remote shard door continues the same trace.
func (c *Coordinator) callShard(parent *trace.Span, round int, conn Conn, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	m := c.perShard[conn.ID()]
	var err error
	for attempt := 0; attempt <= c.retries; attempt++ {
		m.requests.Inc()
		sp := trace.ChildOf(parent, "cluster.shard")
		exID := ""
		if sp != nil {
			sp.Annotate("shard", conn.ID())
			sp.AnnotateInt("round", int64(round))
			sp.AnnotateInt("attempt", int64(attempt))
			sp.AnnotateInt("partitions", int64(len(parts)))
			exID = sp.TraceID()
		}
		start := time.Now()
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if c.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
		}
		if sp != nil {
			ctx = trace.NewContext(ctx, sp)
		}
		var res []platform.RawCount
		res, err = conn.CountBatch(ctx, iface, door, parts, reqs)
		cancel()
		m.latency.ObserveWithExemplar(time.Since(start), exID)
		if err == nil {
			if len(res) != len(reqs) {
				err = fmt.Errorf("cluster: shard %s returned %d slots for %d requests", conn.ID(), len(res), len(reqs))
			} else {
				if sp != nil {
					sp.Annotate("outcome", "ok")
					sp.End()
				}
				return res, nil
			}
		}
		if sp != nil {
			outcome := "failover"
			if attempt < c.retries {
				outcome = "retry"
			}
			sp.Annotate("outcome", outcome)
			sp.SetError(err)
			sp.End()
		}
		m.failures.Inc()
	}
	return nil, err
}

// clusterProvider adapts one interface of the cluster to core.Provider (and
// its batch extension), so the audit runners drive a sharded deployment
// exactly as they drive a single process.
type clusterProvider struct {
	c     *Coordinator
	iface string
	p     *platform.Interface // metadata interface: catalogs and rules
}

// Provider returns a core.Provider measuring through the cluster's
// auditor door.
func (c *Coordinator) Provider(iface string) (core.Provider, error) {
	p, err := c.meta.ByName(iface)
	if err != nil {
		return nil, err
	}
	return &clusterProvider{c: c, iface: iface, p: p}, nil
}

func (cp *clusterProvider) Name() string { return cp.iface }

func (cp *clusterProvider) AttributeNames() []string {
	attrs := cp.p.Catalog().Attributes
	out := make([]string, len(attrs))
	for i := range attrs {
		out[i] = attrs[i].Name
	}
	return out
}

func (cp *clusterProvider) TopicNames() []string {
	topics := cp.p.Catalog().Topics
	out := make([]string, len(topics))
	for i := range topics {
		out[i] = topics[i].Name
	}
	return out
}

func (cp *clusterProvider) CrossFeature() bool {
	return !cp.p.Rules().AndWithinFeature
}

func (cp *clusterProvider) Measure(spec targeting.Spec) (int64, error) {
	return cp.c.Measure(cp.iface, platform.EstimateRequest{Spec: spec})
}

// MeasureCtx implements core.ContextMeasurer: one traced single-spec
// scatter-gather.
func (cp *clusterProvider) MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error) {
	out := cp.MeasureManyCtx(ctx, []targeting.Spec{spec})
	return out[0].Size, out[0].Err
}

// MeasureMany implements core.BatchMeasurer: one scatter-gather per batch.
// A cluster-level failure (partial result) fails every slot — a partial
// count must never be mistaken for a small audience.
func (cp *clusterProvider) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	return cp.measureMany(context.Background(), specs)
}

// MeasureManyCtx implements core.ContextBatchMeasurer: the scatter-gather
// under the caller's trace context.
func (cp *clusterProvider) MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []core.BatchResult {
	return cp.measureMany(ctx, specs)
}

func (cp *clusterProvider) measureMany(ctx context.Context, specs []targeting.Spec) []core.BatchResult {
	reqs := make([]platform.EstimateRequest, len(specs))
	for i := range specs {
		reqs[i] = platform.EstimateRequest{Spec: specs[i]}
	}
	out := make([]core.BatchResult, len(specs))
	est, err := cp.c.MeasureManyCtx(ctx, cp.iface, reqs)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range est {
		out[i] = core.BatchResult{Size: est[i].Size, Err: est[i].Err}
	}
	return out
}
