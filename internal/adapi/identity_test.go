package adapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/snapshot"
)

// snapshotLoadedServer builds a small deployment, round-trips it through an
// on-disk snapshot, and mounts the loaded deployment behind an adapi server
// carrying the snapshot's identity — platformd's -snapshot posture.
func snapshotLoadedServer(t *testing.T, seed uint64) (*httptest.Server, *snapshot.Info) {
	t.Helper()
	opts := platform.DeployOptions{Seed: seed, UniverseSize: 1 << 11, Metrics: obs.NewRegistry()}
	built, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "identity.adusnap")
	if _, err := snapshot.WriteDeployment(path, built, opts); err != nil {
		t.Fatal(err)
	}
	d, info, err := snapshot.LoadDeployment(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(d, ServerOptions{Metrics: obs.NewRegistry(), Snapshot: info})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, info
}

// TestHealthzReportsSnapshotIdentity: a node serving a snapshot-loaded
// deployment must expose the catalog hash and the snapshot's content hash
// and build time from /healthz; a node serving a built deployment exposes
// the catalog hash alone.
func TestHealthzReportsSnapshotIdentity(t *testing.T) {
	ts, info := snapshotLoadedServer(t, 41)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.CatalogHash != info.CatalogHash {
		t.Fatalf("healthz catalog_hash %q, snapshot says %q", health.CatalogHash, info.CatalogHash)
	}
	if health.Snapshot == nil {
		t.Fatal("healthz omits the snapshot block on a snapshot-loaded node")
	}
	if health.Snapshot.ContentHash != info.ContentHash {
		t.Fatalf("healthz snapshot content_hash %q, want %q", health.Snapshot.ContentHash, info.ContentHash)
	}
	if built, err := time.Parse(time.RFC3339, health.Snapshot.BuiltAt); err != nil {
		t.Fatalf("healthz snapshot built_at %q: %v", health.Snapshot.BuiltAt, err)
	} else if !built.Equal(info.CreatedAt.Truncate(time.Second)) {
		t.Fatalf("healthz snapshot built_at %v, want %v", built, info.CreatedAt)
	}

	// Built (non-snapshot) server: catalog hash present, snapshot absent.
	plain, _ := startServer(t, ServerOptions{Metrics: obs.NewRegistry()})
	resp2, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var health2 healthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&health2); err != nil {
		t.Fatal(err)
	}
	if health2.CatalogHash == "" {
		t.Fatal("healthz omits catalog_hash on a built node")
	}
	if health2.Snapshot != nil {
		t.Fatal("healthz reports a snapshot on a built node")
	}
}

// TestProvenanceCarriesSnapshotIdentity: /debug/provenance responses are
// stamped with the serving catalog and snapshot identity, so archived
// provenance listings stay attributable to exact catalog bytes.
func TestProvenanceCarriesSnapshotIdentity(t *testing.T) {
	ts, info := snapshotLoadedServer(t, 43)
	resp, err := http.Get(ts.URL + "/debug/provenance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Adaudit-Catalog-Hash"); got != info.CatalogHash {
		t.Fatalf("provenance catalog hash header %q, want %q", got, info.CatalogHash)
	}
	if got := resp.Header.Get("X-Adaudit-Snapshot-Hash"); got != info.ContentHash {
		t.Fatalf("provenance snapshot hash header %q, want %q", got, info.ContentHash)
	}
	if _, err := time.Parse(time.RFC3339, resp.Header.Get("X-Adaudit-Snapshot-Built-At")); err != nil {
		t.Fatalf("provenance built-at header: %v", err)
	}
}

// TestShardConnCatalogHash pins the remote preflight leg: a ShardConn
// fetches the shard's catalog hash over /healthz, and unreachable or
// hashless servers fail the fetch rather than returning an empty hash.
func TestShardConnCatalogHash(t *testing.T) {
	s0 := testShard(t, testLayout(t, []string{"s0"}, 0), "s0")
	ts := startShardServer(t, s0)
	conn := NewShardConn("s0", ts.URL, nil)
	got, err := conn.CatalogHash()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s0.CatalogHash()
	if got != want {
		t.Fatalf("remote catalog hash %q, in-process shard says %q", got, want)
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer empty.Close()
	if _, err := NewShardConn("s0", empty.URL, nil).CatalogHash(); err == nil {
		t.Fatal("hashless healthz accepted")
	}
	down := httptest.NewServer(nil)
	down.Close()
	if _, err := NewShardConn("s0", down.URL, nil).CatalogHash(); err == nil {
		t.Fatal("unreachable shard returned a hash")
	}
}

// TestRemoteClusterRefusesCatalogSkew runs the coordinator preflight over
// real HTTP: two shards started from different seeds serve divergent
// catalogs, and NewCoordinator must refuse the ring with ErrCatalogSkew
// before any count is scattered.
func TestRemoteClusterRefusesCatalogSkew(t *testing.T) {
	layout := testLayout(t, []string{"s0", "s1"}, 0)
	s0 := testShard(t, layout, "s0")
	// s1 is built from another seed, so it serves the wrong catalog.
	s1, err := cluster.NewShard("s1", layout, platform.DeployOptions{Seed: 9999, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.NewCoordinator(cluster.Options{
		Layout: layout,
		Conns: []cluster.Conn{
			NewShardConn("s0", startShardServer(t, s0).URL, nil),
			NewShardConn("s1", startShardServer(t, s1).URL, nil),
		},
		Deploy:  platform.DeployOptions{Seed: 21, Metrics: obs.NewRegistry()},
		Metrics: obs.NewRegistry(),
	})
	if !errors.Is(err, cluster.ErrCatalogSkew) {
		t.Fatalf("skewed remote ring: got %v, want ErrCatalogSkew", err)
	}
}
