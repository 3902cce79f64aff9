// Command platformd serves the simulated ad platforms' size-estimate APIs
// over HTTP, each in its own JSON dialect (Facebook delivery_estimate,
// LinkedIn audienceCounts, Google's obfuscated reach estimate).
//
// Usage:
//
//	platformd [-addr :8700] [-seed N] [-universe 131072] [-qps 0] [-store DIR] [-warm] [-pprof] [-trace] [-v]
//	platformd -shard-id NAME -ring a,b,c [-ring-replicas 1] [-partition-size 65536] ...
//	platformd -snapshot FILE | -snapshot-write FILE ...
//
// With -snapshot the deployment is reconstructed from a snapshot file
// (internal/snapshot) instead of being rebuilt from hash draws: boot cost
// drops from minutes to milliseconds at large universes, catalog audiences
// are served zero-copy from the mmap'd file, and a snapshot written for a
// different seed, universe, ring slice, or builder is refused with a typed
// error. -snapshot-write persists the deployment after building (both flags
// work in shard mode, where the snapshot covers exactly the node's
// partitions). /healthz and /debug/provenance then identify the loaded
// snapshot by content hash and build time.
//
// Routes per interface (facebook-restricted, facebook, google, linkedin):
//
//	GET  /{name}/options
//	POST /{name}/estimate
//	POST /{name}/measure
//	GET  /healthz            (shard mode echoes shard ID, ring hash, held partitions)
//	GET  /metrics            (query counters, cache stats, latency quantiles)
//	GET  /debug/traces       (with -trace: sampled distributed traces, JSON)
//	GET  /debug/provenance   (with -trace: per-measurement provenance records)
//	GET  /debug/pprof/*      (with -pprof)
//
// With -trace the server continues any distributed trace arriving in the
// X-Adaudit-Trace request header (auditing clients and cluster coordinators
// send it), records spans through the platform query path, and serves the
// buffered traces from /debug/traces. -trace-slow additionally force-records
// and logs requests slower than the given duration, even unsampled ones.
//
// In shard mode (-shard-id) the process materializes only the user-ID
// partitions the consistent-hash ring assigns it and additionally mounts
// the cluster door:
//
//	POST /cluster/count-batch   (raw partition counts for a coordinator)
//
// With -jobs (and -jobs-dir DIR) the process additionally serves the async
// audit-job service: audits submitted as durable, queued, multi-tenant jobs
// that survive restarts and resume from per-phase checkpoints.
//
//	POST   /jobs               submit an audit spec
//	GET    /jobs[/{id}]        list jobs / poll one job
//	DELETE /jobs/{id}          cancel
//	GET    /jobs/{id}/events   NDJSON progress stream
//	GET    /healthz            includes jobs: {enabled, queued, running}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/shapes"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// config is one invocation's flag surface.
type config struct {
	addr     string
	seed     uint64
	universe int
	qps      float64
	burst    float64
	storeDir string
	warm     bool
	comp     bool
	pprofOn  bool
	verbose  bool

	// Snapshot boot.
	snapPath  string
	snapWrite string

	// Shard mode.
	shardID      string
	ring         string
	ringVnodes   int
	ringReplicas int
	partSize     int

	// Async job service.
	jobsOn      bool
	jobsDir     string
	jobsWorkers int

	// Tracing.
	traceOn     bool
	traceSample float64
	traceSlow   time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8700", "listen address")
	flag.Uint64Var(&cfg.seed, "seed", 0, "deployment seed (0 = default)")
	flag.IntVar(&cfg.universe, "universe", 1<<17, "simulated users per platform (global size in shard mode)")
	flag.Float64Var(&cfg.qps, "qps", 0, "per-interface rate limit in queries/sec (0 = unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 20, "rate-limit burst capacity")
	flag.StringVar(&cfg.storeDir, "store", "", "durable auditor-door cache directory (empty = uncached)")
	flag.BoolVar(&cfg.warm, "warm", false, "materialize all option audiences before serving")
	flag.BoolVar(&cfg.comp, "compressed", false, "hold catalog audiences compressed-only, as a snapshot boot does (less memory, slower queries)")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.verbose, "v", false, "log every request")
	flag.StringVar(&cfg.snapPath, "snapshot", "", "boot from this deployment snapshot instead of building (shard mode loads the node's slice)")
	flag.StringVar(&cfg.snapWrite, "snapshot-write", "", "persist the deployment snapshot to this path once it is built")
	flag.StringVar(&cfg.shardID, "shard-id", "", "serve as the named cluster shard (requires -ring)")
	flag.StringVar(&cfg.ring, "ring", "", "comma-separated cluster node names, e.g. a,b,c (shard mode)")
	flag.IntVar(&cfg.ringVnodes, "ring-vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	flag.IntVar(&cfg.ringReplicas, "ring-replicas", 1, "replica owners per partition beyond the primary")
	flag.IntVar(&cfg.partSize, "partition-size", 0, "users per ring partition (0 = default 65536)")
	flag.BoolVar(&cfg.jobsOn, "jobs", false, "serve the async audit-job service under /jobs (requires -jobs-dir)")
	flag.StringVar(&cfg.jobsDir, "jobs-dir", "", "job-service state directory: the job WAL plus one measurement store per job")
	flag.IntVar(&cfg.jobsWorkers, "jobs-workers", 2, "concurrent job executors")
	flag.BoolVar(&cfg.traceOn, "trace", false, "enable distributed tracing (/debug/traces, /debug/provenance)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1.0, "probability a locally-rooted trace is recorded, in [0,1] (with -trace)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 0, "force-record and log requests slower than this duration (implies -trace)")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatalf("platformd: %v", err)
	}
}

// buildShardLayout parses the ring flags into the cluster layout every node
// of a deployment must agree on.
func buildShardLayout(cfg config) (*cluster.Layout, error) {
	if cfg.ring == "" {
		return nil, fmt.Errorf("-shard-id requires -ring with the full node list")
	}
	var nodes []string
	for _, n := range strings.Split(cfg.ring, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	ring, err := cluster.NewRing(nodes, cfg.ringVnodes, cfg.ringReplicas)
	if err != nil {
		return nil, err
	}
	return cluster.NewLayout(ring, cfg.universe, cfg.partSize)
}

// newJobsFactory builds the async job service's provider factory: a job
// targeting a remote cluster gets a scatter-gather coordinator; a job whose
// sizing matches the host deployment shares it (and its warmed audiences);
// anything else gets a dedicated deployment.
func newJobsFactory(cfg config, host *platform.Deployment) jobs.ProviderFactory {
	return func(ctx context.Context, spec jobs.Spec) ([]core.Provider, error) {
		if spec.Cluster != "" {
			universe := spec.Universe
			if universe == 0 {
				universe = cfg.universe
			}
			coord, err := adapi.NewClusterCoordinator(adapi.ClusterSpec{
				Shards:        spec.Cluster,
				Replicas:      spec.ClusterReplicas,
				PartitionSize: spec.PartitionSize,
				Universe:      universe,
				Seed:          spec.Seed,
			})
			if err != nil {
				return nil, err
			}
			return coord.Providers(), nil
		}
		d := host
		if (spec.Universe != 0 && spec.Universe != cfg.universe) ||
			(spec.Seed != 0 && spec.Seed != cfg.seed) {
			log.Printf("jobs: building dedicated deployment (universe=%d, seed=%d)", spec.Universe, spec.Seed)
			var err error
			d, err = platform.NewDeployment(platform.DeployOptions{Seed: spec.Seed, UniverseSize: spec.Universe})
			if err != nil {
				return nil, err
			}
		}
		return core.PlatformProviders(d), nil
	}
}

// buildHandler assembles the deployment (full or shard slice), the optional
// job service, and the HTTP handler.
func buildHandler(cfg config, st *store.Store) (http.Handler, *platform.Deployment, *jobs.Manager, error) {
	dopts := platform.DeployOptions{Seed: cfg.seed, UniverseSize: cfg.universe, Compressed: cfg.comp}
	var layout *cluster.Layout
	if cfg.shardID != "" {
		var err error
		if layout, err = buildShardLayout(cfg); err != nil {
			return nil, nil, nil, err
		}
		// A shard's deployment, built or loaded, covers exactly the spans
		// the layout assigns this node; a snapshot written for another node
		// or ring fails the span check, never serves a single count.
		dopts.UniverseSize = layout.UniverseSize()
		dopts.ShardSpans = layout.ShardSpans(cfg.shardID)
	}
	start := time.Now()
	d, snapInfo, err := shapes.Open(cfg.snapPath, dopts)
	if err != nil {
		return nil, nil, nil, err
	}
	if snapInfo != nil {
		log.Printf("platformd: loaded snapshot %s (content %.12s, built %s) in %v",
			cfg.snapPath, snapInfo.ContentHash, snapInfo.CreatedAt.Format(time.RFC3339), time.Since(start))
	} else {
		log.Printf("platformd: built deployment (universe=%d users/platform, seed=%d) in %v", cfg.universe, cfg.seed, time.Since(start))
	}
	var shard *cluster.Shard
	if layout != nil {
		if shard, err = cluster.NewShardFromDeployment(cfg.shardID, layout, d); err != nil {
			return nil, nil, nil, err
		}
		local := 0
		for _, p := range shard.Held() {
			local += layout.Span(p).Len()
		}
		log.Printf("platformd: shard %s holds %d/%d partitions (%d users/platform) — ready in %v",
			cfg.shardID, len(shard.Held()), layout.NumPartitions(), local, time.Since(start))
	}
	if cfg.snapWrite != "" {
		if _, err := snapshot.WriteDeployment(cfg.snapWrite, d, dopts); err != nil {
			return nil, nil, nil, fmt.Errorf("writing snapshot: %w", err)
		}
		log.Printf("platformd: snapshot written to %s", cfg.snapWrite)
	}
	if cfg.warm {
		start = time.Now()
		for _, p := range d.Interfaces() {
			p.Warm()
			log.Printf("platformd: warmed %s (%d attributes, %d topics)",
				p.Name(), len(p.Catalog().Attributes), len(p.Catalog().Topics))
		}
		log.Printf("platformd: warm-up done in %v", time.Since(start))
	}

	opts := adapi.ServerOptions{RateLimit: cfg.qps, Burst: cfg.burst, Pprof: cfg.pprofOn, Snapshot: snapInfo}
	if cfg.traceOn || cfg.traceSlow > 0 {
		tracer := trace.New(trace.Options{
			SampleRate:    cfg.traceSample,
			SlowThreshold: cfg.traceSlow,
			SlowLog:       trace.NewSlowLog(os.Stderr),
			Provenance:    trace.NewProvenanceLog(0, nil),
		})
		trace.SetDefault(tracer)
		opts.Tracer = tracer
		log.Printf("platformd: tracing enabled (sample=%.3g, slow=%v) — /debug/traces, /debug/provenance", cfg.traceSample, cfg.traceSlow)
	}
	if st != nil {
		opts.Store = st
	}
	if shard != nil {
		opts.Shard = shard
	}
	if cfg.verbose {
		opts.Logf = log.Printf
	}
	var mgr *jobs.Manager
	if cfg.jobsOn {
		if cfg.jobsDir == "" {
			return nil, nil, nil, fmt.Errorf("-jobs requires -jobs-dir for the durable job state")
		}
		var err error
		mgr, err = jobs.Open(jobs.Options{
			Dir:     cfg.jobsDir,
			Workers: cfg.jobsWorkers,
			Factory: newJobsFactory(cfg, d),
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("opening job service: %w", err)
		}
		opts.Jobs = mgr.Handler()
		opts.JobStats = mgr.Stats
		queued, running := mgr.Stats()
		log.Printf("platformd: job service at %s (%d workers, %d jobs re-queued)",
			cfg.jobsDir, cfg.jobsWorkers, queued+running)
	}
	srv, err := adapi.NewServer(d, opts)
	if err != nil {
		if mgr != nil {
			mgr.Close()
		}
		return nil, nil, nil, err
	}
	return srv.Handler(), d, mgr, nil
}

// Slow-client bounds. A request's headers must arrive within
// readHeaderTimeout and the whole request, body included, within
// readTimeout; a keep-alive connection idles at most idleTimeout. There is
// no write timeout: GET /jobs/{id}/events streams NDJSON for a job's whole
// lifetime.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the server platformd serves handler with, bounded
// by the given slow-client timeouts.
func newHTTPServer(addr string, handler http.Handler, readHeader, read, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		IdleTimeout:       idle,
	}
}

func run(cfg config) error {
	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(cfg.storeDir, store.Options{})
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		defer func() {
			stats := st.Stats()
			if err := st.Close(); err != nil {
				log.Printf("platformd: closing store: %v", err)
			}
			log.Printf("platformd: store closed (%d records, %d bytes on disk)", stats.Records, stats.BytesOnDisk)
		}()
		log.Printf("platformd: auditor-door cache at %s (%d records loaded)", st.Dir(), st.Len())
	}
	handler, d, mgr, err := buildHandler(cfg, st)
	if err != nil {
		return err
	}
	if mgr != nil {
		// Graceful-shutdown order: stop accepting HTTP first, then stop the
		// job executors. Interrupted jobs stay "running" in the WAL and
		// resume from their phase checkpoints at the next start.
		defer func() {
			if err := mgr.Close(); err != nil {
				log.Printf("platformd: closing job service: %v", err)
			}
		}()
	}
	httpSrv := newHTTPServer(cfg.addr, handler, readHeaderTimeout, readTimeout, idleTimeout)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("platformd: serving on http://%s", ln.Addr())
	for _, p := range d.Interfaces() {
		fmt.Printf("  %-20s http://%s/%s/{options,estimate,measure}\n", p.Name(), ln.Addr(), p.Name())
	}
	if cfg.shardID != "" {
		fmt.Printf("  %-20s http://%s/cluster/count-batch\n", "cluster door", ln.Addr())
	}
	if mgr != nil {
		fmt.Printf("  %-20s http://%s/jobs\n", "job service", ln.Addr())
	}
	fmt.Printf("  %-20s http://%s/metrics\n", "metrics", ln.Addr())
	if cfg.traceOn || cfg.traceSlow > 0 {
		fmt.Printf("  %-20s http://%s/debug/traces\n", "traces", ln.Addr())
		fmt.Printf("  %-20s http://%s/debug/provenance\n", "provenance", ln.Addr())
	}
	if cfg.pprofOn {
		fmt.Printf("  %-20s http://%s/debug/pprof/\n", "pprof", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		log.Printf("platformd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutdownCtx)
	}
}
