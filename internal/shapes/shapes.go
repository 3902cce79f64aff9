// Package shapes is the one table of deployment shapes: the ways this
// system serves the same audience sizes. Each row builds its shape from a
// Config and returns its providers and serial door. The differential
// matrix (this package's test) and cmd/figures' artifact check both run
// over Rows, so a new shape is one entry here that both checks pick up.
package shapes

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/targeting"
)

// Config is what a row builds its shape from: the options of every
// deployment it builds and, for the cluster rows, the shard count, the
// replica owners per partition beyond the primary, and the users per
// partition (0 for the default).
type Config struct {
	Deploy                          platform.DeployOptions
	Shards, Replicas, PartitionSize int
}

// Shape is one built deployment shape.
type Shape struct {
	// Providers are the audit doors, one per interface, in presentation
	// order.
	Providers []core.Provider
	// Measure is the serial door: one uncached query on Providers[i]'s
	// interface.
	Measure func(i int, spec targeting.Spec) (int64, error)
	// Requests is the batch door that carries objectives and frequency
	// caps, on the shapes that have one.
	Requests func(i int, reqs []platform.EstimateRequest) ([]platform.Estimate, error)
	// Deployment is the in-process deployment the providers measure, if
	// they measure one.
	Deployment *platform.Deployment
	// Close stops the row's servers.
	Close func()
}

// Row builds one shape.
type Row struct {
	Name  string
	Build func(Config) (*Shape, error)
}

// Rows is the table of shapes.
var Rows = []Row{
	{"inproc", func(cfg Config) (*Shape, error) { return inproc(Open("", cfg.Deploy)) }},
	{"inproc-snap", buildSnapshot},
	{"http", buildHTTP},
	{"cluster", buildCluster},
	{"cluster-http", buildClusterHTTP},
}

// Open builds the deployment opts describes, or loads it from the
// snapshot at path when path is set. info is nil for a built deployment.
func Open(path string, opts platform.DeployOptions) (d *platform.Deployment, info *snapshot.Info, err error) {
	if path == "" {
		d, err = platform.NewDeployment(opts)
		return d, nil, err
	}
	if d, info, err = snapshot.LoadDeployment(path, opts); err != nil {
		return nil, nil, fmt.Errorf("loading snapshot: %w", err)
	}
	return d, info, nil
}

// inproc is the shape of an in-process deployment.
func inproc(d *platform.Deployment, _ *snapshot.Info, err error) (*Shape, error) {
	if err != nil {
		return nil, err
	}
	ifaces := d.Interfaces()
	return &Shape{
		Providers: core.PlatformProviders(d),
		Measure: func(i int, spec targeting.Spec) (int64, error) {
			return ifaces[i].Measure(platform.EstimateRequest{Spec: spec})
		},
		Requests: func(i int, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
			return ifaces[i].MeasureMany(reqs), nil
		},
		Deployment: d,
		Close:      func() {},
	}, nil
}

// buildSnapshot writes a built deployment as a full snapshot and serves
// the deployment loaded back from it. The file is removed once loaded: the
// mapping (or the copy, where there is no mmap) outlives it.
func buildSnapshot(cfg Config) (*Shape, error) {
	built, err := platform.NewDeployment(cfg.Deploy)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "shapes-snapshot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "deployment.adusnap")
	if _, err := snapshot.WriteDeployment(path, built, cfg.Deploy); err != nil {
		return nil, err
	}
	return inproc(Open(path, cfg.Deploy))
}

// buildHTTP serves a built deployment from one adapi.Server on loopback,
// with one adapi.Client per interface.
func buildHTTP(cfg Config) (*Shape, error) {
	d, err := platform.NewDeployment(cfg.Deploy)
	if err != nil {
		return nil, err
	}
	srv, err := adapi.NewServer(d, adapi.ServerOptions{Metrics: cfg.Deploy.Metrics})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	s := &Shape{Close: ts.Close}
	var clients []*adapi.Client
	for _, p := range d.Interfaces() {
		c, err := adapi.NewClient(context.Background(), ts.URL, p.Name(), adapi.ClientOptions{Metrics: cfg.Deploy.Metrics})
		if err != nil {
			ts.Close()
			return nil, err
		}
		clients = append(clients, c)
		s.Providers = append(s.Providers, c)
	}
	s.Measure = func(i int, spec targeting.Spec) (int64, error) { return clients[i].Measure(spec) }
	return s, nil
}

// layout is the cluster rows' partition map over shards s0, s1, ….
func layout(cfg Config) (*cluster.Layout, error) {
	ids := make([]string, cfg.Shards)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	ring, err := cluster.NewRing(ids, 0, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	return cluster.NewLayout(ring, cfg.Deploy.Normalized().UniverseSize, cfg.PartitionSize)
}

// coordinated is the shape of a coordinator.
func coordinated(coord *cluster.Coordinator, stop func()) *Shape {
	providers := coord.Providers()
	return &Shape{
		Providers: providers,
		Measure: func(i int, spec targeting.Spec) (int64, error) {
			return coord.Measure(providers[i].Name(), platform.EstimateRequest{Spec: spec})
		},
		Requests: func(i int, reqs []platform.EstimateRequest) ([]platform.Estimate, error) {
			return coord.MeasureManyCtx(context.Background(), providers[i].Name(), reqs)
		},
		Close: stop,
	}
}

// buildCluster wires cfg.Shards in-process shards straight to a
// coordinator.
func buildCluster(cfg Config) (*Shape, error) {
	l, err := layout(cfg)
	if err != nil {
		return nil, err
	}
	var conns []cluster.Conn
	for _, id := range l.Ring().Nodes() {
		s, err := cluster.NewShard(id, l, cfg.Deploy)
		if err != nil {
			return nil, err
		}
		conns = append(conns, s)
	}
	coord, err := cluster.NewCoordinator(cluster.Options{Layout: l, Conns: conns, Deploy: cfg.Deploy, Metrics: cfg.Deploy.Metrics})
	if err != nil {
		return nil, err
	}
	return coordinated(coord, func() {}), nil
}

// buildClusterHTTP serves each of cfg.Shards shards from its own
// adapi.Server on loopback, as platformd -shard-id does, and reaches them
// as adauditctl -cluster does: adapi.NewClusterCoordinator over
// adapi.ShardConn, which takes only the seed and universe size from
// cfg.Deploy.
func buildClusterHTTP(cfg Config) (*Shape, error) {
	l, err := layout(cfg)
	if err != nil {
		return nil, err
	}
	var servers []*httptest.Server
	stop := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	var entries []string
	for _, id := range l.Ring().Nodes() {
		s, err := cluster.NewShard(id, l, cfg.Deploy)
		var srv *adapi.Server
		if err == nil {
			srv, err = adapi.NewServer(s.Deployment(), adapi.ServerOptions{Shard: s, Metrics: cfg.Deploy.Metrics})
		}
		if err != nil {
			stop()
			return nil, err
		}
		servers = append(servers, httptest.NewServer(srv.Handler()))
		entries = append(entries, id+"="+servers[len(servers)-1].URL)
	}
	coord, err := adapi.NewClusterCoordinator(adapi.ClusterSpec{
		Shards:        strings.Join(entries, ","),
		Replicas:      cfg.Replicas,
		PartitionSize: cfg.PartitionSize,
		Universe:      l.UniverseSize(),
		Seed:          cfg.Deploy.Seed,
	})
	if err != nil {
		stop()
		return nil, err
	}
	return coordinated(coord, stop), nil
}
