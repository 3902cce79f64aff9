// Command adauditctl runs the paper's experiments — any figure or table —
// against either an in-process simulated deployment or a remote platformd
// over HTTP.
//
// Usage:
//
//	adauditctl [flags] <experiment>
//
// Experiments:
//
//	fig1 fig2 fig3 fig4 fig5 fig6   figures 1–6
//	tab1 tab2 tab3                  tables 1–3
//	methodology                     §3 consistency + granularity studies
//	rounding                        §3 rounding-bounds robustness check
//	lookalike mitigation delivery retarget   extension studies
//	spec                            audit one ad-hoc composition (see -attrs/-topics/-spec-platform)
//	all                             everything above
//
// Flags select the testbed:
//
//	-endpoint http://host:port   audit a remote platformd (otherwise an
//	                             in-process deployment is built)
//	-universe N -seed N          in-process deployment sizing
//	-k N                         compositions per discovered set
//	-qps N                       client-side rate limit for remote audits
//	-store DIR                   persist every measurement to a durable
//	                             store so a killed run can be resumed
//	-resume                      continue an interrupted -store run; its
//	                             persisted measurements are served from
//	                             disk without re-querying the platforms
//	-trace                       record distributed traces through the whole
//	                             audit path (cache, platform kernels, remote
//	                             servers, cluster shards) and print the
//	                             newest span trees after the run; with
//	                             -store, provenance records append to
//	                             <store>/provenance.jsonl
//
// Async jobs (against a platformd started with -jobs):
//
//	adauditctl -endpoint URL -submit [-follow] [-tenant T -weight W -budget N] <experiment>
//	adauditctl -endpoint URL -watch  <job-id>
//	adauditctl -endpoint URL -cancel <job-id>
//
// -submit enqueues the experiment as a durable server-side job and prints
// its ID; -watch streams a job's progress and renders its results when it
// completes; -cancel requests cancellation. A killed platformd re-queues
// unfinished jobs on restart and resumes them from their measurement
// stores, so a watched job may briefly report extra resumes but always
// converges to the same result.
//
// On SIGINT/SIGTERM a direct (non-job) run stops at the next measurement
// boundary and flushes its -store before exiting, so an interrupted
// campaign resumes cleanly with -resume.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapi"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/shapes"
	"repro/internal/store"
	"repro/internal/targeting"
)

func main() {
	var (
		endpoint   = flag.String("endpoint", "", "remote platformd base URL (empty = in-process)")
		clusterMap = flag.String("cluster", "", "comma-separated shard map name=url,... — audit a sharded deployment through a scatter-gather coordinator")
		replicas   = flag.Int("cluster-replicas", 1, "replica owners per partition beyond the primary (-cluster)")
		partSize   = flag.Int("partition-size", 0, "users per ring partition, 0 = default 65536 (-cluster)")
		universe   = flag.Int("universe", 1<<17, "in-process simulated users per platform")
		seed       = flag.Uint64("seed", 0, "deployment seed")
		snapPath   = flag.String("snapshot", "", "boot the in-process deployment from this snapshot file (internal/snapshot) instead of building it")
		k          = flag.Int("k", 1000, "compositions per discovered set")
		qps        = flag.Float64("qps", 50, "client-side query rate limit for remote audits")
		granCalls  = flag.Int("granularity-calls", 80000, "distinct calls for the granularity study")
		out        = flag.String("out", "-", "output file (- = stdout)")
		format     = flag.String("format", "text", "output format: text | json")
		metrics    = flag.Bool("metrics", false, "print a run metrics summary (cache hit rates, upstream calls, retries, phase wall-clocks) and log live audit progress")
		metricsOut = flag.String("metrics-out", "", "write the full metrics snapshot (text exposition) to FILE after the run")
		storeDir   = flag.String("store", "", "durable measurement store directory (created if absent)")
		resume     = flag.Bool("resume", false, "resume an interrupted run from the measurements persisted in -store")

		traceOn     = flag.Bool("trace", false, "record distributed traces through the audit path and print the newest after the run")
		traceSample = flag.Float64("trace-sample", 0.01, "probability an audit root starts a recorded trace, in [0,1] (-trace)")
		traceSlow   = flag.Duration("trace-slow", 0, "force-record and log audits slower than this duration, even unsampled ones (implies -trace)")

		specPlatform = flag.String("spec-platform", "facebook-restricted", "platform for the spec experiment")
		specAttrs    = flag.String("attrs", "", "spec experiment: attribute ids or name substrings, comma separated")
		specTopics   = flag.String("topics", "", "spec experiment: topic ids or name substrings (google)")

		submit = flag.Bool("submit", false, "submit the experiment as an async job to -endpoint and print its ID")
		follow = flag.Bool("follow", false, "with -submit: stream the job's progress and render its results")
		watch  = flag.Bool("watch", false, "stream an existing job's progress; the argument is the job ID")
		cancel = flag.Bool("cancel", false, "cancel a job; the argument is the job ID")
		tenant = flag.String("tenant", "", "tenant the job's queries are accounted to (-submit)")
		weight = flag.Float64("weight", 0, "tenant fair-share weight, 0 = keep current (-submit)")
		budget = flag.Int64("budget", 0, "tenant cumulative upstream-query budget, 0 = keep current (-submit)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: adauditctl [flags] <fig1..fig6|tab1..tab3|methodology|rounding|lookalike|mitigation|all>")
		fmt.Fprintln(os.Stderr, "       adauditctl -endpoint URL -submit <experiment> | -watch <job-id> | -cancel <job-id>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, runOptions{
		experiment: flag.Arg(0),
		endpoint:   *endpoint,
		cluster:    *clusterMap,
		replicas:   *replicas,
		partSize:   *partSize,
		universe:   *universe,
		seed:       *seed,
		snapshot:   *snapPath,
		k:          *k,
		qps:        *qps,
		granCalls:  *granCalls,
		out:        *out,
		format:     *format,
		metrics:    *metrics,
		metricsOut: *metricsOut,
		storeDir:   *storeDir,
		resume:     *resume,
		traceOn:    *traceOn,
		sample:     *traceSample,
		slow:       *traceSlow,
		spec:       specArgs{platform: *specPlatform, attrs: *specAttrs, topics: *specTopics},
		submit:     *submit,
		follow:     *follow,
		watch:      *watch,
		cancel:     *cancel,
		tenant:     *tenant,
		weight:     *weight,
		budget:     *budget,
	}); err != nil {
		log.Fatalf("adauditctl: %v", err)
	}
}

// runOptions carries one invocation's flag surface.
type runOptions struct {
	experiment string
	endpoint   string
	cluster    string
	replicas   int
	partSize   int
	universe   int
	seed       uint64
	snapshot   string
	k          int
	qps        float64
	granCalls  int
	out        string
	format     string
	metrics    bool
	metricsOut string
	storeDir   string
	resume     bool
	traceOn    bool
	sample     float64
	slow       time.Duration
	spec       specArgs

	// Async-job verbs.
	submit bool
	follow bool
	watch  bool
	cancel bool
	tenant string
	weight float64
	budget int64
}

// newRunner builds the runner from either door. ctx cancels the run: every
// auditor stops at its next measurement boundary once the signal context
// fires.
func newRunner(ctx context.Context, o runOptions, st *store.Store) (*experiments.Runner, error) {
	endpoint, universe, seed, k, qps := o.endpoint, o.universe, o.seed, o.k, o.qps
	cfg := experiments.Config{K: k, Seed: seed + 1, Context: ctx}
	if st != nil {
		cfg.Store = st
	}
	if o.metrics {
		// Throttled live progress: one line per 250 completed specs plus
		// each batch's completion, so long fan-out scans are steerable
		// without drowning the log.
		cfg.Progress = func(platform string, done, total int) {
			if done%250 == 0 || done == total {
				log.Printf("audit progress: %s %d/%d specs", platform, done, total)
			}
		}
	}
	if o.cluster != "" {
		coord, err := adapi.NewClusterCoordinator(adapi.ClusterSpec{
			Shards:        o.cluster,
			Replicas:      o.replicas,
			PartitionSize: o.partSize,
			Universe:      o.universe,
			Seed:          o.seed,
		})
		if err != nil {
			return nil, err
		}
		layout := coord.Layout()
		log.Printf("auditing sharded cluster (%d partitions of %d users, %d replicas)",
			layout.NumPartitions(), layout.PartitionSize(), o.replicas)
		cfg.Providers = coord.Providers()
		return experiments.NewRunner(cfg)
	}
	if endpoint == "" {
		d, info, err := shapes.Open(o.snapshot, platform.DeployOptions{Seed: seed, UniverseSize: universe})
		if err != nil {
			return nil, err
		}
		if info != nil {
			log.Printf("loaded snapshot %s (content %.12s, built %s)",
				o.snapshot, info.ContentHash, info.CreatedAt.Format(time.RFC3339))
		} else {
			log.Printf("built in-process deployment (universe=%d, seed=%d)", universe, seed)
		}
		cfg.Deployment = d
		return experiments.NewRunner(cfg)
	}
	log.Printf("auditing remote platformd at %s (rate limit %.0f qps)", endpoint, qps)
	dialCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, name := range []string{
		catalog.PlatformFacebookRestricted,
		catalog.PlatformFacebook,
		catalog.PlatformGoogle,
		catalog.PlatformLinkedIn,
	} {
		c, err := adapi.NewClient(dialCtx, endpoint, name, adapi.ClientOptions{RateLimit: qps, Burst: qps})
		if err != nil {
			return nil, fmt.Errorf("connecting to %s: %w", name, err)
		}
		cfg.Providers = append(cfg.Providers, c)
	}
	return experiments.NewRunner(cfg)
}

// specArgs carries the ad-hoc spec experiment's selectors.
type specArgs struct {
	platform string
	attrs    string
	topics   string
}

// resolveOptions maps comma-separated ids or name substrings to option ids.
func resolveOptions(sel string, names []string) ([]int, error) {
	if sel == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if id, err := strconv.Atoi(part); err == nil {
			if id < 0 || id >= len(names) {
				return nil, fmt.Errorf("option id %d out of range [0, %d)", id, len(names))
			}
			out = append(out, id)
			continue
		}
		found := -1
		for i, name := range names {
			if strings.Contains(strings.ToLower(name), strings.ToLower(part)) {
				if found >= 0 {
					return nil, fmt.Errorf("selector %q is ambiguous (%q and %q)", part, names[found], name)
				}
				found = i
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("no option matches %q", part)
		}
		out = append(out, found)
	}
	return out, nil
}

// runSpec audits one ad-hoc composition against every standard class.
func runSpec(w io.Writer, r *experiments.Runner, args specArgs) error {
	a, err := r.Auditor(args.platform)
	if err != nil {
		return err
	}
	attrIDs, err := resolveOptions(args.attrs, a.Provider().AttributeNames())
	if err != nil {
		return fmt.Errorf("attrs: %w", err)
	}
	topicIDs, err := resolveOptions(args.topics, a.Provider().TopicNames())
	if err != nil {
		return fmt.Errorf("topics: %w", err)
	}
	var parts []targeting.Spec
	for _, id := range attrIDs {
		parts = append(parts, targeting.Attr(id))
	}
	for _, id := range topicIDs {
		parts = append(parts, targeting.Topic(id))
	}
	if len(parts) == 0 {
		return fmt.Errorf("spec experiment needs -attrs and/or -topics")
	}
	spec := targeting.And(parts...)
	fmt.Fprintf(w, "# Ad-hoc audit on %s: %s\n", args.platform, a.Describe(spec))
	fmt.Fprintf(w, "%-12s %-10s %-14s %-14s\n", "class", "rep_ratio", "recall", "total_reach")
	for _, c := range core.StandardClasses() {
		m, err := a.Audit(spec, c)
		if err != nil {
			fmt.Fprintf(w, "%-12s (unmeasurable: %v)\n", c, err)
			continue
		}
		flag := ""
		if core.OutsideFourFifths(m.RepRatio) {
			flag = "  <- outside four-fifths"
		}
		fmt.Fprintf(w, "%-12s %-10.2f %-14d %-14d%s\n", c, m.RepRatio, m.Recall, m.TotalReach, flag)
	}
	return nil
}

// openRunStore opens (or refuses to open) the durable store an invocation
// asked for. A populated store demands an explicit -resume so two concurrent
// campaigns cannot silently share — and cross-contaminate — one archive, and
// -resume demands existing state so a typo'd directory fails loudly instead
// of starting a silent fresh run.
func openRunStore(o runOptions) (*store.Store, error) {
	if o.storeDir == "" {
		if o.resume {
			return nil, fmt.Errorf("-resume requires -store DIR")
		}
		return nil, nil
	}
	st, err := store.Open(o.storeDir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	if st.Len() > 0 && !o.resume {
		n := st.Len()
		st.Close()
		return nil, fmt.Errorf("store %s already holds %d measurements; pass -resume to continue that run, or point -store at a fresh directory", o.storeDir, n)
	}
	if o.resume {
		if st.Len() == 0 {
			st.Close()
			return nil, fmt.Errorf("-resume: store %s holds no measurements to resume from", o.storeDir)
		}
		log.Printf("resuming from %s (%d persisted measurements)", st.Dir(), st.Len())
	}
	return st, nil
}

func run(ctx context.Context, o runOptions) error {
	experiment, format, metrics, metricsOut, sa := o.experiment, o.format, o.metrics, o.metricsOut, o.spec
	granCalls := o.granCalls
	if format != "text" && format != "json" {
		return fmt.Errorf("unknown format %q", format)
	}
	w := io.Writer(os.Stdout)
	if o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if o.submit || o.watch || o.cancel {
		return runJobVerb(ctx, w, o)
	}
	st, err := openRunStore(o)
	if err != nil {
		return err
	}
	if st != nil {
		defer func() {
			stats := st.Stats()
			if err := st.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
			log.Printf("store: %d measurements persisted (%d appended this run, %d bytes on disk)",
				stats.Records, stats.Appends, stats.BytesOnDisk)
		}()
	}
	tracer, closeTrace, err := setupTracing(o)
	if err != nil {
		return err
	}
	if closeTrace != nil {
		defer closeTrace()
	}
	r, err := newRunner(ctx, o, st)
	if err != nil {
		return err
	}
	var phases []string

	runOne := func(name string) error {
		start := time.Now()
		phases = append(phases, name)
		defer func() { log.Printf("%s done in %v", name, time.Since(start)) }()
		if name == "spec" {
			return runSpec(w, r, sa)
		}
		res, err := r.RunExperiment(name, experiments.PhaseOptions{GranularityCalls: granCalls})
		if err != nil {
			return err
		}
		if format == "json" {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res.Rows)
		}
		return res.Render(w)
	}

	finish := func() error {
		if metrics {
			if err := printMetricsSummary(w, r, phases); err != nil {
				return err
			}
		}
		if tracer != nil {
			printTraces(w, tracer)
		}
		if metricsOut != "" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			if err := obs.Default().WriteText(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}
	names := []string{experiment}
	if experiment != "spec" {
		// The deployment-only studies need in-process internals, so "all"
		// drops them for remote and cluster audits.
		remoteOnly := o.endpoint != "" || o.cluster != ""
		names, err = experiments.ExpandExperiments(names, remoteOnly)
		if err != nil {
			return err
		}
	}
	if o.resume {
		// A resumed experiment re-runs from the top, but every measurement
		// the killed run persisted is served from disk — checkpoints tell
		// the operator how much of the battery is pure replay.
		if done := r.CompletedPhases(names...); len(done) > 0 {
			log.Printf("resume: phases already completed once: %s (re-deriving from stored measurements)",
				strings.Join(done, ", "))
		}
	}
	for i, name := range names {
		if err := runOne(name); err != nil {
			if ctx.Err() != nil {
				// Interrupted (SIGINT/SIGTERM): the fan-out stopped at a
				// measurement boundary, and the deferred store close
				// flushes everything measured so far, so the campaign
				// resumes from here.
				if st != nil {
					log.Printf("interrupted during %s: measurements flushed to %s; rerun with -store %s -resume to continue",
						name, o.storeDir, o.storeDir)
				} else {
					log.Printf("interrupted during %s (no -store: progress is not recoverable)", name)
				}
				return fmt.Errorf("%s: %w", name, ctx.Err())
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := r.MarkPhaseComplete(name); err != nil {
			log.Printf("checkpointing %s: %v", name, err)
		}
		if i < len(names)-1 {
			fmt.Fprintln(w)
		}
	}
	return finish()
}

// runJobVerb drives the async job service on a platformd started with
// -jobs: submit (optionally following to completion), watch, or cancel.
func runJobVerb(ctx context.Context, w io.Writer, o runOptions) error {
	n := 0
	for _, on := range []bool{o.submit, o.watch, o.cancel} {
		if on {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("pass exactly one of -submit, -watch, -cancel")
	}
	if o.endpoint == "" {
		return fmt.Errorf("-submit/-watch/-cancel require -endpoint")
	}
	jc := adapi.NewJobsClient(o.endpoint, nil)
	switch {
	case o.cancel:
		if err := jc.Cancel(ctx, o.experiment); err != nil {
			return err
		}
		log.Printf("job %s: cancellation requested", o.experiment)
		return nil
	case o.watch:
		return watchJob(ctx, w, jc, o.experiment)
	}
	spec := jobs.Spec{
		Experiments:      []string{o.experiment},
		K:                o.k,
		Seed:             o.seed,
		Universe:         o.universe,
		GranularityCalls: o.granCalls,
		Cluster:          o.cluster,
		ClusterReplicas:  o.replicas,
		PartitionSize:    o.partSize,
		Tenant:           o.tenant,
		Weight:           o.weight,
		Budget:           o.budget,
	}
	j, err := jc.Submit(ctx, spec)
	if err != nil {
		return err
	}
	log.Printf("job %s: submitted as tenant %s (%d phases: %s)",
		j.ID, j.Tenant, len(j.Phases), strings.Join(j.Phases, " "))
	if !o.follow {
		fmt.Fprintln(w, j.ID)
		return nil
	}
	return watchJob(ctx, w, jc, j.ID)
}

// watchJob streams a job's events until it is terminal, then renders its
// per-phase results (always JSON — the service returns the same rows
// -format json emits).
func watchJob(ctx context.Context, w io.Writer, jc *adapi.JobsClient, id string) error {
	fin, err := jc.Watch(ctx, id, func(ev jobs.Event) {
		switch ev.Type {
		case jobs.EventState:
			if ev.Error != "" {
				log.Printf("job %s: %s (%s)", id, ev.State, ev.Error)
			} else {
				log.Printf("job %s: %s", id, ev.State)
			}
		case jobs.EventPhase:
			log.Printf("job %s: phase %s complete", id, ev.Phase)
		case jobs.EventProgress:
			log.Printf("job %s: %s %s %d/%d specs", id, ev.Phase, ev.Platform, ev.Done, ev.Total)
		}
	})
	if err != nil {
		return err
	}
	switch fin.State {
	case jobs.StateDone:
		if fin.Resumes > 0 {
			log.Printf("job %s: done after %d resume(s), %d upstream queries", id, fin.Resumes, fin.Queries)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(fin.Result)
	case jobs.StateCanceled:
		log.Printf("job %s: canceled", id)
		return nil
	default:
		return fmt.Errorf("job %s %s: %s", id, fin.State, fin.Error)
	}
}

// setupTracing installs the process-wide tracer the -trace flags ask for,
// returning it with an optional cleanup. With -store, provenance records
// are additionally appended to <store>/provenance.jsonl, so a resumed
// campaign accumulates one provenance archive alongside its measurements.
func setupTracing(o runOptions) (*trace.Tracer, func(), error) {
	if !o.traceOn && o.slow <= 0 {
		return nil, nil, nil
	}
	var provW io.Writer
	var closeFn func()
	if o.storeDir != "" {
		path := filepath.Join(o.storeDir, "provenance.jsonl")
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("opening provenance log: %w", err)
		}
		provW = f
		closeFn = func() { f.Close() }
		log.Printf("provenance: appending records to %s", path)
	}
	tracer := trace.New(trace.Options{
		SampleRate:    o.sample,
		SlowThreshold: o.slow,
		SlowLog:       trace.NewSlowLog(os.Stderr),
		Provenance:    trace.NewProvenanceLog(0, provW),
	})
	trace.SetDefault(tracer)
	return tracer, closeFn, nil
}

// printTraces renders the newest buffered traces as indented span trees —
// the CLI's window into the same data a traced platformd serves from
// /debug/traces.
func printTraces(w io.Writer, tr *trace.Tracer) {
	const show = 5
	sums := tr.Summaries(show)
	fmt.Fprintf(w, "\n# Traces: %d buffered, %d provenance records", tr.Len(), tr.Provenance().Len())
	if len(sums) == 0 {
		fmt.Fprintf(w, " (nothing sampled — raise -trace-sample?)\n")
		return
	}
	fmt.Fprintf(w, ", newest %d:\n", len(sums))
	for _, s := range sums {
		id, ok := trace.ParseTraceID(s.TraceID)
		if !ok {
			continue
		}
		d, ok := tr.Dump(id)
		if !ok {
			continue
		}
		fmt.Fprintln(w)
		trace.Render(w, d)
	}
}

// printMetricsSummary renders the run's observability roll-up: per-platform
// upstream query counts (the paper's ethics constraint made queries the
// audit's scarcest resource) and per-phase wall-clocks.
func printMetricsSummary(w io.Writer, r *experiments.Runner, phases []string) error {
	reg := obs.Default()
	fmt.Fprintf(w, "\n# Run metrics\n")
	fmt.Fprintf(w, "%-22s %9s %9s %9s %9s %8s %9s %8s %8s %12s\n",
		"platform", "specs", "upstream", "hits", "disk", "hitrate", "collapsed", "retries", "429s", "p95_upstream")
	for _, name := range r.PlatformNames() {
		a, err := r.Auditor(name)
		if err != nil {
			return err
		}
		st, ok := core.StatsOf(a.Provider())
		if !ok {
			continue
		}
		lbl := obs.L("platform", name)
		fmt.Fprintf(w, "%-22s %9d %9d %9d %9d %7.1f%% %9d %8d %8d %12s\n",
			name,
			reg.CounterValue("audit_specs_total", lbl),
			core.UpstreamCalls(a.Provider()),
			st.Hits,
			st.StoreHits,
			100*st.HitRate(),
			st.Collapsed,
			reg.CounterValue("adapi_client_retries_total", lbl),
			reg.CounterValue("adapi_client_429_total", lbl),
			st.Upstream.P95.Round(time.Microsecond),
		)
	}
	// Batched-evaluation roll-up: the queries the tiled kernel answered
	// (plans_compiled_total; a serial query is a one-slot batch), in how
	// many batches and tiles. The platform counters live in the registry of
	// the process that serves the deployment, so a remote run (-endpoint)
	// finds none and omits the table. Batch sizes are spec counts stored in
	// the histogram's duration slots.
	hists := make(map[string]obs.HistogramSnapshot)
	for _, s := range reg.Gather() {
		if s.Name == "batch_size_specs" {
			hists[s.Label("interface")] = s.Hist
		}
	}
	var batchRows [][6]any
	for _, name := range r.PlatformNames() {
		lbl := obs.L("interface", name)
		q := reg.CounterValue("plans_compiled_total", lbl)
		if q == 0 {
			continue
		}
		h := hists[name]
		batchRows = append(batchRows, [6]any{
			name, q, h.Count, reg.CounterValue("batch_kernel_blocks_total", lbl),
			int64(h.P50), int64(h.P95),
		})
	}
	if len(batchRows) > 0 {
		fmt.Fprintf(w, "\n%-22s %9s %9s %9s %10s %10s\n",
			"platform", "batched", "batches", "tiles", "p50_specs", "p95_specs")
		for _, row := range batchRows {
			fmt.Fprintf(w, "%-22s %9d %9d %9d %10d %10d\n", row[0], row[1], row[2], row[3], row[4], row[5])
		}
	}
	// Cluster roll-up: the scatter path's per-shard health — requests,
	// failed attempts, partitions failover moved off the shard, and attempt
	// latency. Present only when a -cluster run touched the coordinator.
	type shardRow struct {
		requests, failures, moved int64
		p50, p95                  time.Duration
	}
	shardRows := make(map[string]*shardRow)
	var shardIDs []string
	row := func(id string) *shardRow {
		r, ok := shardRows[id]
		if !ok {
			r = &shardRow{}
			shardRows[id] = r
			shardIDs = append(shardIDs, id)
		}
		return r
	}
	for _, s := range reg.Gather() {
		id := s.Label("shard")
		if id == "" {
			continue
		}
		switch s.Name {
		case "cluster_shard_requests_total":
			row(id).requests = int64(s.Value)
		case "cluster_shard_failures_total":
			row(id).failures = int64(s.Value)
		case "cluster_partitions_reassigned_total":
			row(id).moved = int64(s.Value)
		case "cluster_shard_seconds":
			row(id).p50, row(id).p95 = s.Hist.P50, s.Hist.P95
		}
	}
	if len(shardIDs) > 0 {
		sort.Strings(shardIDs)
		fmt.Fprintf(w, "\n%-10s %9s %9s %12s %12s %12s\n",
			"shard", "requests", "failures", "parts_moved", "p50_attempt", "p95_attempt")
		for _, id := range shardIDs {
			r := shardRows[id]
			fmt.Fprintf(w, "%-10s %9d %9d %12d %12s %12s\n",
				id, r.requests, r.failures, r.moved,
				r.p50.Round(time.Microsecond), r.p95.Round(time.Microsecond))
		}
		fmt.Fprintf(w, "cluster: %d batches, %d failovers, %d partial results withheld\n",
			reg.CounterValue("cluster_batches_total"),
			reg.CounterValue("cluster_failovers_total"),
			reg.CounterValue("cluster_partial_results_total"))
	}

	fmt.Fprintf(w, "\n%-14s %12s\n", "phase", "wall-clock")
	for _, ph := range phases {
		fmt.Fprintf(w, "%-14s %11.3fs\n", ph, r.PhaseSeconds(ph))
	}
	return nil
}
