package platform

import (
	"fmt"

	"repro/internal/audience"
	"repro/internal/obs"
	"repro/internal/targeting"
)

// This file is the shard-side door of the cluster (internal/cluster): a
// coordinator fans a batch out to shards, each shard answers with raw
// matched-user counts restricted to the partitions it was asked to serve,
// and the coordinator sums the partial counts and applies scaling and
// rounding exactly once — through ScaleAndRound, the expression every
// single-node door applies to its own counts.

// Door selects which of the interface's two query doors a request goes
// through: the auditor's Measure door or the advertiser's Estimate door.
type Door uint8

// Doors.
const (
	DoorMeasure Door = iota
	DoorEstimate
)

// String names the door as the wire protocol does.
func (d Door) String() string {
	if d == DoorEstimate {
		return "estimate"
	}
	return "measure"
}

// ParseDoor inverts Door.String.
func ParseDoor(s string) (Door, error) {
	switch s {
	case "measure":
		return DoorMeasure, nil
	case "estimate":
		return DoorEstimate, nil
	default:
		return 0, fmt.Errorf("platform: unknown door %q", s)
	}
}

// doorRules returns the validation rules behind a door.
func (p *Interface) doorRules(d Door) targeting.Rules {
	if d == DoorEstimate {
		return p.cfg.AdvertiserRules
	}
	return p.MeasurementRules()
}

// doorCounter returns the door's query counter.
func (p *Interface) doorCounter(d Door) *obs.Counter {
	if d == DoorEstimate {
		return p.mEstimateQueries
	}
	return p.mMeasureQueries
}

// IndexRange is a half-open window [Lo, Hi) of local user indices.
type IndexRange = audience.Window

// RawCount is one slot of a RawCountMany batch: the raw matched-user count
// within the requested ranges, or the error the single-node door would have
// returned for the slot.
type RawCount struct {
	Count int64
	Err   error
}

// rawBatchSlots bounds the slots RawCountMany compiles into one schedule.
// A schedule's compile state, about half a kilobyte a slot, lives until it
// executes, and a coordinator scatters its largest batches, ~10^4 specs, to
// every shard at once. On a 3-shard in-process cluster auditing fig1+fig2
// at 2^17 users, whole-batch schedules raised peak RSS by ~18% over
// evaluating slot by slot, 512-slot schedules by ~8%, at equal audit time.
const rawBatchSlots = 512

// RawCountMany evaluates a batch of requests under the door's rules and
// returns each spec's raw matched-user count restricted to the given local
// index ranges (nil counts the whole local universe). No scaling, no
// rounding: those are the coordinator's job, applied once to the merged sum.
// Per-request failures are reported in their slot, mirroring MeasureMany.
// The batch compiles through countMany, every door's one body,
// rawBatchSlots slots per schedule, and each schedule walks only the
// ranges' tiles.
func (p *Interface) RawCountMany(door Door, reqs []EstimateRequest, ranges []IndexRange) []RawCount {
	return p.countMany(nil, door, reqs, ranges, rawBatchSlots, nil, nil)
}
