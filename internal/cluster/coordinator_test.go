package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/battery"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// Cluster test settings: a small universe, and partitions small enough
// that every shard holds something.
const (
	eqUniverse  = 1 << 16
	eqPartition = 1 << 12
	eqSeed      = 7_2020
)

// clusterNodes names n shards.
func clusterNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%02d", i)
	}
	return out
}

// buildCluster assembles an in-process cluster: ring, layout, one Shard per
// node, and a coordinator wired straight to the shards.
func buildCluster(t testing.TB, nodes []string, replicas int, opts platform.DeployOptions, partitionSize int) (*Coordinator, []*Shard) {
	t.Helper()
	ring, err := NewRing(nodes, 0, replicas)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	layout, err := NewLayout(ring, opts.UniverseSize, partitionSize)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	shards := make([]*Shard, 0, len(nodes))
	conns := make([]Conn, 0, len(nodes))
	for _, n := range nodes {
		s, err := NewShard(n, layout, opts)
		if err != nil {
			t.Fatalf("NewShard(%s): %v", n, err)
		}
		shards = append(shards, s)
		conns = append(conns, s)
	}
	coord, err := NewCoordinator(Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  opts,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return coord, shards
}

// batteryRequests draws n battery cases for p as auditor-door requests, with
// their objectives and frequency caps.
func batteryRequests(p *platform.Interface, seed uint64, n int) []platform.EstimateRequest {
	cat := battery.Catalog{Attributes: len(p.Catalog().Attributes), Topics: len(p.Catalog().Topics)}
	reqs := make([]platform.EstimateRequest, n)
	for i, c := range battery.Draw(seed, n, cat) {
		reqs[i] = platform.EstimateRequest{Spec: c.Spec, Objective: platform.Objective(c.Objective), FrequencyCapPerMonth: c.Cap}
	}
	return reqs
}

// matchSlot asserts one scatter-gather slot equals the single-node outcome
// bit for bit: same size, or an error with the same message.
func matchSlot(t *testing.T, ctxt string, i int, got platform.Estimate, want platform.Estimate) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s slot %d: cluster err=%v, single-node err=%v", ctxt, i, got.Err, want.Err)
	}
	if want.Err != nil {
		if got.Err.Error() != want.Err.Error() {
			t.Fatalf("%s slot %d: cluster err %q, single-node err %q", ctxt, i, got.Err, want.Err)
		}
		return
	}
	if got.Size != want.Size {
		t.Fatalf("%s slot %d: cluster size %d, single-node size %d", ctxt, i, got.Size, want.Size)
	}
}

// TestCoordinatorValidation exercises the constructor's error paths.
func TestCoordinatorValidation(t *testing.T) {
	ring, err := NewRing([]string{"a", "b"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(ring, 1<<12, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(Options{}); err == nil {
		t.Fatal("nil layout should fail")
	}
	if _, err := NewCoordinator(Options{Layout: layout}); err == nil {
		t.Fatal("missing conns should fail")
	}
	opts := platform.DeployOptions{Seed: 1, UniverseSize: 1 << 12, Metrics: obs.NewRegistry()}
	sa, err := NewShard("a", layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(Options{Layout: layout, Conns: []Conn{sa, sa}, Deploy: opts}); err == nil {
		t.Fatal("duplicate conns should fail")
	}
	if _, err := NewShard("zz", layout, opts); err == nil {
		t.Fatal("shard not in ring should fail")
	}
}

// TestShardRejectsForeignPartition pins the ErrPartitionNotHeld contract
// the coordinator's failover leans on.
func TestShardRejectsForeignPartition(t *testing.T) {
	ring, err := NewRing(clusterNodes(3), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(ring, 1<<14, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	opts := platform.DeployOptions{Seed: 3, UniverseSize: 1 << 14, Metrics: obs.NewRegistry()}
	s, err := NewShard("shard-00", layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Deployment() == nil {
		t.Fatal("shard has no deployment")
	}
	if got, want := s.Held(), layout.HeldPartitions("shard-00"); len(got) != len(want) {
		t.Fatalf("shard holds %d partitions, layout says %d", len(got), len(want))
	}
	var foreign uint32
	found := false
	for p := 0; p < layout.NumPartitions(); p++ {
		if layout.Primary(uint32(p)) != "shard-00" {
			foreign, found = uint32(p), true
			break
		}
	}
	if !found {
		t.Skip("shard-00 owns everything at this size")
	}
	req := []platform.EstimateRequest{{Spec: targeting.Attr(0)}}
	if _, err := s.CountBatch(context.Background(), catalog.PlatformFacebook, platform.DoorMeasure, []uint32{foreign}, req); !errors.Is(err, ErrPartitionNotHeld) {
		t.Fatalf("foreign partition: got %v, want ErrPartitionNotHeld", err)
	}
}
