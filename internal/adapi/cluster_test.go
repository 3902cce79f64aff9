package adapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// startShardServer mounts one cluster shard behind a full adapi server, the
// way platformd -shard-id runs it.
func startShardServer(t *testing.T, s *cluster.Shard) *httptest.Server {
	t.Helper()
	srv, err := NewServer(s.Deployment(), ServerOptions{Metrics: obs.NewRegistry(), Shard: s})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testLayout is the cluster tests' partition map: the shared deployment's
// 15,000 users in 1,024-user partitions over nodes, 8 virtual nodes each.
func testLayout(t *testing.T, nodes []string, replicas int) *cluster.Layout {
	t.Helper()
	ring, err := cluster.NewRing(nodes, 8, replicas)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, 15000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// testShard builds node's shard of layout from the shared deployment's
// seed.
func testShard(t *testing.T, layout *cluster.Layout, node string) *cluster.Shard {
	t.Helper()
	s, err := cluster.NewShard(node, layout, platform.DeployOptions{Seed: 21, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testCoordinator scatters over conns for layout.
func testCoordinator(t *testing.T, layout *cluster.Layout, conns []cluster.Conn) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  platform.DeployOptions{Seed: 21, Metrics: obs.NewRegistry()},
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestClusterDoorFailover kills one shard's HTTP server mid-cluster: the
// coordinator must fail its partitions over to the replica servers and
// still match the single node.
func TestClusterDoorFailover(t *testing.T) {
	single := serverDeploy(t)
	nodes := []string{"s0", "s1", "s2"}
	layout := testLayout(t, nodes, 1)
	servers := make(map[string]*httptest.Server, len(nodes))
	conns := make([]cluster.Conn, 0, len(nodes))
	for _, n := range nodes {
		servers[n] = startShardServer(t, testShard(t, layout, n))
		conns = append(conns, NewShardConn(n, servers[n].URL, nil))
	}
	coord := testCoordinator(t, layout, conns)
	servers["s1"].Close() // connection refused from here on

	p := single.Facebook
	reqs := []platform.EstimateRequest{
		{Spec: targeting.Attr(0)},
		{Spec: targeting.And(targeting.Attr(1), targeting.Attr(2))},
	}
	got, err := coord.MeasureManyCtx(context.Background(), p.Name(), reqs)
	if err != nil {
		t.Fatalf("failover over HTTP: %v", err)
	}
	want := p.MeasureMany(reqs)
	for i := range reqs {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("slot %d: unexpected errs %v / %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Size != want[i].Size {
			t.Fatalf("slot %d: failover size %d, single %d", i, got[i].Size, want[i].Size)
		}
	}
}

// TestClusterDoorPartitionNotHeld checks the typed error survives the HTTP
// round trip: the coordinator's failover logic matches it with errors.Is.
func TestClusterDoorPartitionNotHeld(t *testing.T) {
	layout := testLayout(t, []string{"s0", "s1", "s2"}, 0)
	var foreign uint32
	found := false
	for p := 0; p < layout.NumPartitions(); p++ {
		if layout.Primary(uint32(p)) != "s0" {
			foreign, found = uint32(p), true
			break
		}
	}
	if !found {
		t.Skip("s0 owns everything")
	}
	conn := NewShardConn("s0", startShardServer(t, testShard(t, layout, "s0")).URL, nil)
	_, err := conn.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure,
		[]uint32{foreign}, []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if !errors.Is(err, cluster.ErrPartitionNotHeld) {
		t.Fatalf("foreign partition over HTTP: got %v, want ErrPartitionNotHeld", err)
	}
}

// TestClusterDoorUnknownInterface: a count-batch naming an interface the
// shard does not serve is the caller's mistake — answered 400 with the
// unknown_platform code and the platform's message — and the typed error
// survives the round trip through ShardConn.
func TestClusterDoorUnknownInterface(t *testing.T) {
	ts := startShardServer(t, testShard(t, testLayout(t, []string{"s0"}, 0), "s0"))
	body := `{"interface":"nope","door":"measure","partitions":[0],"requests":[]}`
	resp, err := http.Post(ts.URL+"/cluster/count-batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != codeUnknownPlatform || env.Error.Message != `platform: unknown interface "nope"` {
		t.Fatalf("unknown interface: HTTP %d %+v, want 400 %s", resp.StatusCode, env.Error, codeUnknownPlatform)
	}
	conn := NewShardConn("s0", ts.URL, nil)
	_, err = conn.CountBatch(context.Background(), "nope", platform.DoorMeasure,
		[]uint32{0}, []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if !errors.Is(err, platform.ErrUnknownInterface) {
		t.Fatalf("unknown interface over HTTP: got %v, want platform.ErrUnknownInterface", err)
	}
}

// TestShardConnRejectsMiswiredShard: a conn that reaches the wrong shard
// must fail loudly instead of merging the wrong partial counts.
func TestShardConnRejectsMiswiredShard(t *testing.T) {
	layout := testLayout(t, []string{"s0", "s1"}, 1)
	ts := startShardServer(t, testShard(t, layout, "s0"))
	conn := NewShardConn("s1", ts.URL, nil) // claims s1, reaches s0
	_, err := conn.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure,
		layout.PrimaryPartitions("s0")[:1], []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if err == nil || !strings.Contains(err.Error(), "reached shard") {
		t.Fatalf("miswired conn: got %v, want shard mismatch error", err)
	}
}

// TestShardConnBoundsResponse: an address that answers with more than the
// response bound (a miswired shard address streaming data) fails the call
// with an error naming the shard instead of growing the coordinator's
// memory without limit.
func TestShardConnBoundsResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte{' '}, 1<<20)
		for sent := 0; sent <= maxResponseBytes; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	conn := NewShardConn("s0", ts.URL, nil)
	_, err := conn.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure,
		[]uint32{0}, []platform.EstimateRequest{{Spec: targeting.Attr(0)}})
	if err == nil || !strings.Contains(err.Error(), "shard s0: response exceeds") {
		t.Fatalf("oversized shard response: got %v, want a bound error naming shard s0", err)
	}
}

// TestBatchSlotErrorNamesCanonicalKey is the regression test for the batch
// client's malformed-slot error: it must identify the failing slot by the
// spec's canonical key, not a bare batch index.
func TestBatchSlotErrorNamesCanonicalKey(t *testing.T) {
	codec, err := CodecFor(catalog.PlatformFacebook)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/facebook/options", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(optionsResponse{
			Platform:   catalog.PlatformFacebook,
			Attributes: []string{"a0", "a1", "a2"},
		})
	})
	mux.HandleFunc("/facebook/measure-batch", func(w http.ResponseWriter, r *http.Request) {
		good := codec.AppendResponse(nil, 4200)
		// Slot 0 decodes; slot 1's body is valid JSON but not a valid
		// dialect response, so DecodeResponse fails client-side.
		resp := batchResponse{Results: []batchSlot{
			{Body: good},
			{Body: json.RawMessage(`{"nonsense":true}`)},
		}}
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := NewClient(context.Background(), ts.URL, catalog.PlatformFacebook, ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	specs := []targeting.Spec{
		targeting.Attr(0),
		targeting.And(targeting.Attr(1), targeting.Attr(2)),
	}
	res := c.MeasureMany(specs)
	if res[0].Err != nil {
		t.Fatalf("slot 0 should decode: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("slot 1 should fail to decode")
	}
	key := targeting.Canonical(specs[1])
	if !strings.Contains(res[1].Err.Error(), key) {
		t.Fatalf("malformed-slot error %q does not name canonical key %q", res[1].Err, key)
	}
	if strings.Contains(res[1].Err.Error(), fmt.Sprintf("slot %d:", 1)) {
		t.Fatalf("malformed-slot error %q still uses the batch index", res[1].Err)
	}
}

// TestClusterDoorSplitsOversizedBatch: shards behind a 4 KiB body limit
// refuse a large count-batch with 413; ShardConn splits it in halves until
// each part fits, so the HTTP cluster answers without a PartialError and
// slot for slot like the same shards wired in process.
func TestClusterDoorSplitsOversizedBatch(t *testing.T) {
	nodes := []string{"s0", "s1", "s2"}
	layout := testLayout(t, nodes, 1)
	var httpConns, localConns []cluster.Conn
	for _, n := range nodes {
		s := testShard(t, layout, n)
		srv, err := NewServer(s.Deployment(), ServerOptions{Metrics: obs.NewRegistry(), Shard: s, MaxBodyBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		httpConns = append(httpConns, NewShardConn(n, ts.URL, nil))
		localConns = append(localConns, s)
	}
	overHTTP, inProcess := testCoordinator(t, layout, httpConns), testCoordinator(t, layout, localConns)
	name := catalog.PlatformFacebook
	nAttr := len(overHTTP.Metadata().Facebook.Catalog().Attributes)
	specs := oversizedBatch(nAttr)
	reqs := make([]platform.EstimateRequest, len(specs))
	for i := range specs {
		reqs[i] = platform.EstimateRequest{Spec: specs[i]}
	}
	if body, _ := json.Marshal(reqs); len(body) <= 4<<10 {
		t.Fatalf("batch encodes to %d bytes, under the limit", len(body))
	}
	got, err := overHTTP.MeasureManyCtx(context.Background(), name, reqs)
	if err != nil {
		t.Fatalf("cluster over HTTP: %v", err)
	}
	want, err := inProcess.MeasureManyCtx(context.Background(), name, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Size != want[i].Size {
			t.Fatalf("slot %d: HTTP (%d, %v), in process (%d, %v)", i, got[i].Size, got[i].Err, want[i].Size, want[i].Err)
		}
	}
}
