package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/platform"
)

// ErrPartitionNotHeld marks a count request addressed to a shard for a
// partition it neither owns nor replicates — the coordinator's signal to
// re-address the partition through the ring's owner list.
var ErrPartitionNotHeld = errors.New("cluster: partition not held by shard")

// Shard is one node's slice of the deployment: a platform.Deployment built
// over exactly the partitions the ring assigns the node (primary plus
// replicas), answering raw-count batches over any subset of them. Shard
// implements Conn, so an in-process cluster wires coordinators straight to
// shards; platformd wraps one behind the adapi transport for the real
// multi-process topology.
type Shard struct {
	id       string
	dep      *platform.Deployment
	held     []uint32
	local    map[uint32]platform.IndexRange
	ringHash uint64
}

// NewShard materializes node id's slice of the deployment described by
// opts. The layout decides which global-ID spans the node holds; opts'
// UniverseSize is overridden by the layout's (they describe the same
// space). With opts.Compressed set the shard holds its catalog audiences
// compressed-only, as any deployment does — the memory posture that fits a
// 2^24-user shard.
func NewShard(id string, layout *Layout, opts platform.DeployOptions) (*Shard, error) {
	found := false
	for _, n := range layout.Ring().Nodes() {
		if n == id {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: shard %q not in ring", id)
	}
	opts.UniverseSize = layout.UniverseSize()
	opts.ShardSpans = layout.ShardSpans(id)
	dep, err := platform.NewDeployment(opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s deployment: %w", id, err)
	}
	return NewShardFromDeployment(id, layout, dep)
}

// NewShardFromDeployment wraps an already-constructed deployment — typically
// one reconstructed from a snapshot (internal/snapshot.LoadDeployment) — as
// node id's shard. The deployment must span exactly the global-ID ranges the
// layout assigns the node; a snapshot written for a different ring or node
// is refused here before it can serve a single count.
func NewShardFromDeployment(id string, layout *Layout, dep *platform.Deployment) (*Shard, error) {
	found := false
	for _, n := range layout.Ring().Nodes() {
		if n == id {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: shard %q not in ring", id)
	}
	uni := dep.Facebook.Universe()
	if got, want := uni.GlobalSize(), layout.UniverseSize(); got != want {
		return nil, fmt.Errorf("cluster: shard %s deployment spans a %d-user universe, layout has %d", id, got, want)
	}
	want := layout.ShardSpans(id)
	got := uni.Spans()
	if len(got) != len(want) {
		return nil, fmt.Errorf("cluster: shard %s deployment holds %d spans, layout assigns %d", id, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("cluster: shard %s span %d is [%d, %d), layout assigns [%d, %d)",
				id, i, got[i].Lo, got[i].Hi, want[i].Lo, want[i].Hi)
		}
	}
	held := layout.HeldPartitions(id)
	return &Shard{
		id:       id,
		dep:      dep,
		held:     held,
		local:    layout.localRanges(held),
		ringHash: layout.Fingerprint(),
	}, nil
}

// CatalogHash fingerprints the shard's catalogs (platform.CatalogHash): the
// coordinator's preflight compares it against its own metadata deployment so
// a shard loaded from a stale snapshot can never contribute counts for the
// wrong options. The error is always nil in-process; the signature matches
// CatalogHasher, whose remote implementations can fail to fetch.
func (s *Shard) CatalogHash() (string, error) { return platform.CatalogHash(s.dep), nil }

// ID returns the shard's node name.
func (s *Shard) ID() string { return s.id }

// RingHash returns the fingerprint of the layout the shard was built from
// (Layout.Fingerprint), echoed from the health endpoint so layout agreement
// across a cluster is checkable before any count is scattered.
func (s *Shard) RingHash() uint64 { return s.ringHash }

// Deployment returns the shard's platform deployment (its local slice of
// every universe).
func (s *Shard) Deployment() *platform.Deployment { return s.dep }

// Held returns the partitions the shard materializes, ascending (shared; do
// not modify).
func (s *Shard) Held() []uint32 { return s.held }

// CountBatch evaluates the batch on interface iface under the given door
// and returns each spec's raw matched-user count restricted to the listed
// partitions. Scaling and rounding are deliberately absent: they are the
// coordinator's merge-then-round job. Partitions must be held by this
// shard; an unknown one fails the whole call with ErrPartitionNotHeld so
// the coordinator can re-address it.
func (s *Shard) CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.dep.ByName(iface)
	if err != nil {
		return nil, err
	}
	ranges := make([]platform.IndexRange, 0, len(parts))
	for _, part := range parts {
		r, ok := s.local[part]
		if !ok {
			return nil, fmt.Errorf("%w: shard %s, partition %d", ErrPartitionNotHeld, s.id, part)
		}
		ranges = append(ranges, r)
	}
	// Ascending ranges let each compiled schedule walk the shard's local
	// index space in order.
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Lo < ranges[j].Lo })
	return p.RawCountMany(door, reqs, ranges), nil
}
