package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/targeting"
)

// Cluster geometry of cluster3-snap: platformd's default of one replica
// per partition, and 2^14-user partitions (8 of them at 2^17 users).
var shardIDs = []string{"s0", "s1", "s2"}

const (
	shardReplicas = 1
	partitionSize = 1 << 14
)

// shape is one deployment shape, set up and ready to audit.
type shape struct {
	// providers are the campaign doors in presentation order.
	providers []core.Provider
	// measure sends one uncached estimate through the shape's auditor door
	// for providers[i]'s interface.
	measure func(i int, spec targeting.Spec) (int64, error)
	// setup holds per-layer set-up timings for the traced run.
	setup map[string]float64
	// replay, when set, replays campaign batches through the HTTP shard
	// door and returns how many were refused.
	replay func(batches [][]targeting.Spec, ifaces []string) (int, error)
	close  func() error
}

// setupShape builds the workload's deployment shape. Taps are installed
// when l is non-nil.
func setupShape(workload string, universe int, snapDir string, reg *obs.Registry, l *layers) (*shape, error) {
	switch workload {
	case "inproc":
		return setupInproc(universe, reg)
	case "http":
		return setupHTTP(universe, reg, l)
	case "cluster3-snap":
		return setupCluster(universe, snapDir, reg, l)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// buildWarm builds a dense deployment and warms all four interfaces
// concurrently, as experiments.NewRunner and platformd -warm do.
func buildWarm(universe int, reg *obs.Registry, setup map[string]float64) (*platform.Deployment, error) {
	start := time.Now()
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: deploySeed, UniverseSize: universe, Metrics: reg})
	if err != nil {
		return nil, err
	}
	built := time.Now()
	var wg sync.WaitGroup
	for _, p := range d.Interfaces() {
		wg.Add(1)
		go func(p *platform.Interface) {
			defer wg.Done()
			p.Warm()
		}(p)
	}
	wg.Wait()
	setup["platform.new_deployment_s"] = built.Sub(start).Seconds()
	setup["platform.warm_s"] = time.Since(built).Seconds()
	return d, nil
}

func setupInproc(universe int, reg *obs.Registry) (*shape, error) {
	s := &shape{setup: map[string]float64{}, close: func() error { return nil }}
	d, err := buildWarm(universe, reg, s.setup)
	if err != nil {
		return nil, err
	}
	ifaces := d.Interfaces()
	for _, p := range ifaces {
		s.providers = append(s.providers, core.NewPlatformProvider(p))
	}
	s.measure = func(i int, spec targeting.Spec) (int64, error) {
		return ifaces[i].Measure(platform.EstimateRequest{Spec: spec})
	}
	return s, nil
}

// serveLoopback serves h on an ephemeral loopback port. The returned stop
// function closes the server and waits for its goroutine to exit.
func serveLoopback(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		cerr := srv.Close()
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return cerr
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func setupHTTP(universe int, reg *obs.Registry, l *layers) (*shape, error) {
	s := &shape{setup: map[string]float64{}}
	d, err := buildWarm(universe, reg, s.setup)
	if err != nil {
		return nil, err
	}
	// platformd's serving defaults: no rate limit, burst 20, 1 MiB bodies.
	srv, err := adapi.NewServer(d, adapi.ServerOptions{Burst: 20, Metrics: reg})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	// A private transport keeps the one keep-alive connection the
	// closed-loop client needs out of the process-wide pool.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tr
	if l != nil {
		h = l.handler(h)
		rt = l.transport(rt)
	}
	base, stop, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	s.close = func() error {
		tr.CloseIdleConnections()
		return stop()
	}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: rt}
	var clients []*adapi.Client
	for _, p := range d.Interfaces() {
		c, err := adapi.NewClient(context.Background(), base, p.Name(), adapi.ClientOptions{HTTPClient: hc, Metrics: reg})
		if err != nil {
			_ = s.close() // the client error is the one to report
			return nil, err
		}
		clients = append(clients, c)
		s.providers = append(s.providers, c)
	}
	s.measure = func(i int, spec targeting.Spec) (int64, error) { return clients[i].Measure(spec) }
	return s, nil
}

// clusterLayout is cluster3-snap's partition map.
func clusterLayout(universe int) (*cluster.Layout, error) {
	ring, err := cluster.NewRing(shardIDs, 0, shardReplicas)
	if err != nil {
		return nil, err
	}
	return cluster.NewLayout(ring, universe, partitionSize)
}

func shardOptions(layout *cluster.Layout, id string, reg *obs.Registry) platform.DeployOptions {
	return platform.DeployOptions{
		Seed:         deploySeed,
		UniverseSize: layout.UniverseSize(),
		ShardSpans:   layout.ShardSpans(id),
		Metrics:      reg,
	}
}

func snapshotPath(dir, id string) string { return filepath.Join(dir, id+".snap") }

// prepSnapshots builds every shard of the cluster3-snap layout and writes
// its snapshot into dir, the way platformd -shard-id ... -snapshot-write
// does.
func prepSnapshots(dir string, universe int) error {
	layout, err := clusterLayout(universe)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range shardIDs {
		sh, err := cluster.NewShard(id, layout, platform.DeployOptions{Seed: deploySeed})
		if err != nil {
			return err
		}
		if _, err := snapshot.WriteDeployment(snapshotPath(dir, id), sh.Deployment(), shardOptions(layout, id, nil)); err != nil {
			return fmt.Errorf("writing shard %s snapshot: %w", id, err)
		}
	}
	return nil
}

func setupCluster(universe int, snapDir string, reg *obs.Registry, l *layers) (*shape, error) {
	if snapDir == "" {
		return nil, errors.New("cluster3-snap needs -snapdir")
	}
	layout, err := clusterLayout(universe)
	if err != nil {
		return nil, err
	}
	s := &shape{setup: map[string]float64{}, close: func() error { return nil }}
	start := time.Now()
	shards := make([]*cluster.Shard, len(shardIDs))
	conns := make([]cluster.Conn, len(shardIDs))
	for i, id := range shardIDs {
		d, _, err := snapshot.LoadDeployment(snapshotPath(snapDir, id), shardOptions(layout, id, reg))
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", id, err)
		}
		if shards[i], err = cluster.NewShardFromDeployment(id, layout, d); err != nil {
			return nil, err
		}
		conns[i] = shards[i]
		if l != nil {
			conns[i] = l.conn(shards[i], layout)
		}
	}
	loaded := time.Now()
	coord, err := cluster.NewCoordinator(cluster.Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  platform.DeployOptions{Seed: deploySeed, Metrics: reg},
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	s.setup["snapshot.load_s"] = loaded.Sub(start).Seconds()
	s.setup["cluster.new_coordinator_s"] = time.Since(loaded).Seconds()
	var names []string
	for _, p := range coord.Metadata().Interfaces() {
		cp, err := coord.Provider(p.Name())
		if err != nil {
			return nil, err
		}
		s.providers = append(s.providers, cp)
		names = append(names, p.Name())
	}
	s.measure = func(i int, spec targeting.Spec) (int64, error) {
		return coord.Measure(names[i], platform.EstimateRequest{Spec: spec})
	}
	s.replay = func(batches [][]targeting.Spec, ifaces []string) (int, error) {
		return replayShardHTTP(shards[0], layout, batches, ifaces)
	}
	return s, nil
}

// replayShardHTTP sends each batch to one shard's slice through
// adapi.ShardConn and an in-process shard server, the wire path a platformd
// cluster takes, and counts the batches the shard door refuses.
func replayShardHTTP(sh *cluster.Shard, layout *cluster.Layout, batches [][]targeting.Spec, ifaces []string) (int, error) {
	srv, err := adapi.NewServer(sh.Deployment(), adapi.ServerOptions{Burst: 20, Shard: sh, Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	base, stop, err := serveLoopback(srv.Handler())
	if err != nil {
		return 0, err
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	conn := adapi.NewShardConn(sh.ID(), base, &http.Client{Timeout: 60 * time.Second, Transport: tr})
	parts := layout.PrimaryPartitions(sh.ID())
	refused := 0
	for i, specs := range batches {
		reqs := make([]platform.EstimateRequest, len(specs))
		for k, spec := range specs {
			reqs[k].Spec = spec
		}
		if _, err := conn.CountBatch(context.Background(), ifaces[i], platform.DoorMeasure, parts, reqs); err != nil {
			refused++
		}
	}
	tr.CloseIdleConnections()
	return refused, stop()
}
