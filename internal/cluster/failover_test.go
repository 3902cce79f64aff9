package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// flakyConn wraps a shard and fails on demand: while `down` is set every
// CountBatch errors, and `failFirst` makes only the first n calls fail (the
// retry-path probe). Safe for concurrent use, as the Conn contract demands.
type flakyConn struct {
	*Shard
	down      atomic.Bool
	failFirst atomic.Int64
	calls     atomic.Int64
}

func (f *flakyConn) CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	n := f.calls.Add(1)
	if f.down.Load() {
		return nil, fmt.Errorf("flaky: shard %s is down", f.ID())
	}
	if n <= f.failFirst.Load() {
		return nil, fmt.Errorf("flaky: shard %s transient failure %d", f.ID(), n)
	}
	return f.Shard.CountBatch(ctx, iface, door, parts, reqs)
}

// buildFlakyCluster is buildCluster with every conn wrapped in a flakyConn.
func buildFlakyCluster(t testing.TB, n, replicas int, opts platform.DeployOptions, retries int) (*Coordinator, map[string]*flakyConn) {
	t.Helper()
	ring, err := NewRing(clusterNodes(n), 0, replicas)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(ring, opts.UniverseSize, eqPartition)
	if err != nil {
		t.Fatal(err)
	}
	flaky := make(map[string]*flakyConn, n)
	conns := make([]Conn, 0, n)
	for _, node := range ring.Nodes() {
		s, err := NewShard(node, layout, opts)
		if err != nil {
			t.Fatalf("NewShard(%s): %v", node, err)
		}
		fc := &flakyConn{Shard: s}
		flaky[node] = fc
		conns = append(conns, fc)
	}
	coord, err := NewCoordinator(Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  opts,
		Retries: retries,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord, flaky
}

// TestFailoverBitIdentical is the failure-injection battery: concurrent
// coordinator batches while one shard dies mid-run. With one replica every
// partition still has a live owner, so every batch must succeed via
// failover AND stay bit-identical to the single-node answer — a failed-over
// count that merely "looks plausible" is exactly the bug class this test
// exists to catch. Run under -race in CI.
func TestFailoverBitIdentical(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	single, err := platform.NewDeployment(platform.DeployOptions{
		Seed: eqSeed, UniverseSize: eqUniverse, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, flaky := buildFlakyCluster(t, 3, 1, opts, 0)

	p := single.Facebook
	reqs := batteryRequests(p, 9001, 32)
	want := p.MeasureMany(reqs)

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	var kicked sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if w == 0 && round == rounds/2 {
					// Kill one shard mid-run, once, while batches are in
					// flight on every other worker.
					kicked.Do(func() { flaky["shard-01"].down.Store(true) })
				}
				got, err := coord.MeasureManyCtx(context.Background(), p.Name(), reqs)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, round, err)
					return
				}
				for i := range reqs {
					if (got[i].Err == nil) != (want[i].Err == nil) {
						errs <- fmt.Errorf("worker %d round %d slot %d: err mismatch %v vs %v", w, round, i, got[i].Err, want[i].Err)
						return
					}
					if got[i].Err == nil && got[i].Size != want[i].Size {
						errs <- fmt.Errorf("worker %d round %d slot %d: size %d, want %d", w, round, i, got[i].Size, want[i].Size)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !flaky["shard-01"].down.Load() {
		t.Fatal("test bug: shard was never killed")
	}
}

// TestRetrySameShard checks the per-shard retry budget: a transient
// failure followed by success must be absorbed by retries without any
// failover, and the answer stays bit-identical.
func TestRetrySameShard(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	single, err := platform.NewDeployment(platform.DeployOptions{
		Seed: eqSeed, UniverseSize: eqUniverse, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, flaky := buildFlakyCluster(t, 2, 1, opts, 1)
	flaky["shard-00"].failFirst.Store(1)

	p := single.LinkedIn
	reqs := batteryRequests(p, 555, 8)
	want := p.MeasureMany(reqs)
	got, err := coord.MeasureManyCtx(context.Background(), p.Name(), reqs)
	if err != nil {
		t.Fatalf("retry should have absorbed the transient failure: %v", err)
	}
	for i := range reqs {
		matchSlot(t, "retry", i, got[i], want[i])
	}
}

// TestPartialError checks graceful degradation: with zero replicas a dead
// shard's partitions have nowhere to go, so the coordinator must refuse
// with ErrPartial naming the unserved partitions rather than return an
// under-count.
func TestPartialError(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	coord, flaky := buildFlakyCluster(t, 3, 0, opts, 0)
	flaky["shard-02"].down.Store(true)

	p, err := coord.Metadata().ByName("facebook")
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 is always answerable, so the batch reaches the shards.
	reqs := append([]platform.EstimateRequest{{Spec: targeting.Attr(0)}}, batteryRequests(p, 777, 3)...)
	_, err = coord.MeasureManyCtx(context.Background(), "facebook", reqs)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("dead shard with no replicas: got %v, want ErrPartial", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	if msg := pe.Error(); !strings.Contains(msg, "unserved") {
		t.Fatalf("partial error message %q does not say so", msg)
	}
	if pe.Unwrap() == nil {
		t.Fatal("partial error hides its cause")
	}
	wantParts := coord.Layout().PrimaryPartitions("shard-02")
	if len(pe.Partitions) != len(wantParts) {
		t.Fatalf("partial error lists %d partitions, want %d", len(pe.Partitions), len(wantParts))
	}
	for i := range wantParts {
		if pe.Partitions[i] != wantParts[i] {
			t.Fatalf("partial partitions %v, want %v", pe.Partitions, wantParts)
		}
	}

	// Recovery: bring the shard back and the same coordinator must answer.
	flaky["shard-02"].down.Store(false)
	if _, err := coord.MeasureManyCtx(context.Background(), "facebook", reqs); err != nil {
		t.Fatalf("recovered shard: %v", err)
	}
}

// TestFailoverCascade kills two of four shards with two replicas: every
// partition still has at least one live owner two hops down the ring, so
// multi-round failover must converge and stay bit-identical.
func TestFailoverCascade(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Compressed:   true,
		Metrics:      obs.NewRegistry(),
	}
	single, err := platform.NewDeployment(platform.DeployOptions{
		Seed: eqSeed, UniverseSize: eqUniverse, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, flaky := buildFlakyCluster(t, 4, 2, opts, 0)
	flaky["shard-00"].down.Store(true)
	flaky["shard-03"].down.Store(true)

	p := single.Google
	reqs := batteryRequests(p, 31337, 16)
	want := p.MeasureMany(reqs)
	got, err := coord.MeasureManyCtx(context.Background(), p.Name(), reqs)
	if err != nil {
		t.Fatalf("two dead shards with two replicas should still converge: %v", err)
	}
	for i := range reqs {
		matchSlot(t, "cascade", i, got[i], want[i])
	}
}
