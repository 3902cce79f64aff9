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
// rounding exactly once — through ScaleAndRound below, which replicates the
// single-node float op order bit for bit.

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

// QueryParams validates a request's non-spec parameters under the door's
// rules and returns the scaling factors the statistic multiplies by. The
// cluster coordinator calls this on its zero-user metadata interface so
// validation outcomes and factors are decided once, identically to the
// single-node path.
func (p *Interface) QueryParams(door Door, req EstimateRequest) (eligible, impressions float64, err error) {
	return p.queryParams(req, p.doorRules(door))
}

// ScaleAndRound converts a raw matched-user count into the door-visible
// rounded platform-scale size. The expression mirrors estimateExact and the
// batched scaleAndRound term for term — same multiplication order, same
// +0.5 truncation, same rounder — so a coordinator applying it to a sum of
// shard counts is bit-identical to a single node counting the full
// universe. Rounding metrics are tallied exactly as the single-node doors
// tally them.
func (p *Interface) ScaleAndRound(count int64, eligible, impressions float64) int64 {
	v := float64(count) * p.ScaleFactor() * eligible
	if p.cfg.ImpressionEstimates {
		v *= impressions
	}
	exact := int64(v + 0.5)
	rounded := p.cfg.Rounder.Round(exact)
	switch {
	case rounded == 0 && exact > 0:
		p.mFloorRejections.Inc()
	case rounded != exact:
		p.mRoundingHits.Inc()
	}
	return rounded
}

// IndexRange is a half-open window [Lo, Hi) of local user indices.
type IndexRange struct {
	Lo, Hi int
}

// RawCount is one slot of a RawCountMany batch: the raw matched-user count
// within the requested ranges, or the error the single-node door would have
// returned for the slot.
type RawCount struct {
	Count int64
	Err   error
}

// RawCountMany evaluates a batch of requests under the door's rules and
// returns each spec's raw matched-user count restricted to the given local
// index ranges (nil counts the whole local universe). No scaling, no
// rounding: those are the coordinator's job, applied once to the merged sum.
// Per-request failures are reported in their slot, mirroring MeasureMany.
func (p *Interface) RawCountMany(door Door, reqs []EstimateRequest, ranges []IndexRange) []RawCount {
	rules := p.doorRules(door)
	out := make([]RawCount, len(reqs))
	served := int64(0)
	for i := range reqs {
		if _, _, err := p.queryParams(reqs[i], rules); err != nil {
			out[i].Err = err
			continue
		}
		c, err := p.countMatchedRanges(reqs[i].Spec, ranges)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Count = int64(c)
		served++
	}
	if served > 0 {
		p.queryCount.Add(served)
		p.doorCounter(door).Add(served)
	}
	return out
}

// coversAll reports whether the ranges cover the whole local index space.
func coversAll(ranges []IndexRange, n int) bool {
	next := 0
	for _, r := range ranges {
		if r.Lo > next {
			return false
		}
		if r.Hi > next {
			next = r.Hi
		}
	}
	return next >= n
}

// countMatchedRanges counts the users matching a spec whose local index
// falls in the given ranges (nil = everywhere). Dense interfaces counting
// the full range take the zero-allocation countMatched fast paths;
// everything else evaluates the spec into a scratch accumulator — via the
// dense×compressed kernels when the interface is CSetOnly — and popcounts
// the requested windows.
func (p *Interface) countMatchedRanges(spec targeting.Spec, ranges []IndexRange) (int, error) {
	n := p.cfg.Universe.Size()
	full := ranges == nil || coversAll(ranges, n)
	if full && !p.cfg.CSetOnly && p.cfg.Views == nil {
		return p.countMatched(spec)
	}
	acc, err := p.audienceScratch(spec)
	if err != nil {
		return 0, err
	}
	defer acc.Recycle()
	if full {
		return acc.Count(), nil
	}
	total := 0
	for _, r := range ranges {
		total += acc.CountRange(r.Lo, r.Hi)
	}
	return total, nil
}

// refOperand is a resolved targeting ref in whichever form the interface
// retains: dense (demographics, custom audiences, and every set on a dense
// interface) or compressed-only (catalog option sets under CSetOnly or
// Config.Views).
type refOperand struct {
	s *audience.Set
	c *audience.CSet
}

// refOperand resolves one ref. Under CSetOnly, catalog option sets are
// materialized dense transiently, compressed, and the dense form dropped —
// the interface never retains more than the compressed catalog. On a
// snapshot-backed interface the sets decoded over the mapped file are
// returned directly: no materialization, no compression, no copies, ever.
func (p *Interface) refOperand(r targeting.Ref) (refOperand, error) {
	if vs := p.cfg.Views; vs != nil {
		switch r.Kind {
		case targeting.KindAttribute:
			if r.ID < 0 || r.ID >= len(vs.Attributes) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: vs.Attributes[r.ID]}, nil
		case targeting.KindTopic:
			if r.ID < 0 || r.ID >= len(vs.Topics) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: vs.Topics[r.ID]}, nil
		case targeting.KindPlacement:
			if r.ID < 0 || r.ID >= len(vs.Placements) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: vs.Placements[r.ID]}, nil
		}
	}
	if p.cfg.CSetOnly {
		u := p.cfg.Universe
		switch r.Kind {
		case targeting.KindAttribute:
			if r.ID < 0 || r.ID >= len(p.cfg.Catalog.Attributes) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: p.attrCSets[r.ID].get(func() *audience.CSet {
				return audience.FromSet(u.Materialize(p.cfg.Catalog.Attributes[r.ID].Model))
			})}, nil
		case targeting.KindTopic:
			if r.ID < 0 || r.ID >= len(p.cfg.Catalog.Topics) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: p.topicCSets[r.ID].get(func() *audience.CSet {
				return audience.FromSet(u.Materialize(p.cfg.Catalog.Topics[r.ID].Model))
			})}, nil
		case targeting.KindPlacement:
			if r.ID < 0 || r.ID >= len(p.cfg.Catalog.Placements) {
				return refOperand{}, fmt.Errorf("%w: %s", targeting.ErrUnknownOption, r)
			}
			return refOperand{c: p.placementCSets[r.ID].get(func() *audience.CSet {
				return audience.FromSet(u.Materialize(p.cfg.Catalog.Placements[r.ID].Model))
			})}, nil
		}
	}
	s, err := p.refSet(r)
	if err != nil {
		return refOperand{}, err
	}
	return refOperand{s: s}, nil
}

// audienceScratch evaluates a spec into a scratch set the caller must
// Recycle. Error order matches countMatched: clauses in include-then-exclude
// order, refs in clause order.
func (p *Interface) audienceScratch(spec targeting.Spec) (*audience.Set, error) {
	if len(spec.Include) == 0 {
		return nil, targeting.ErrEmptySpec
	}
	n := p.cfg.Universe.Size()
	orClause := func(dst *audience.Set, cl targeting.Clause) error {
		if len(cl) == 0 {
			return targeting.ErrEmptyClause
		}
		dst.Clear()
		for _, r := range cl {
			op, err := p.refOperand(r)
			if err != nil {
				return err
			}
			if op.c != nil {
				dst.OrWithC(op.c)
			} else {
				dst.OrWith(op.s)
			}
		}
		return nil
	}
	acc := audience.NewScratch(n)
	if err := orClause(acc, spec.Include[0]); err != nil {
		acc.Recycle()
		return nil, err
	}
	var tmp *audience.Set
	defer func() {
		if tmp != nil {
			tmp.Recycle()
		}
	}()
	combine := func(cl targeting.Clause, exclude bool) error {
		if len(cl) == 0 {
			return targeting.ErrEmptyClause
		}
		if len(cl) == 1 {
			op, err := p.refOperand(cl[0])
			if err != nil {
				return err
			}
			switch {
			case op.c != nil && exclude:
				acc.AndNotWithC(op.c)
			case op.c != nil:
				acc.AndWithC(op.c)
			case exclude:
				acc.AndNotWith(op.s)
			default:
				acc.AndWith(op.s)
			}
			return nil
		}
		if tmp == nil {
			tmp = audience.NewScratch(n)
		}
		if err := orClause(tmp, cl); err != nil {
			return err
		}
		if exclude {
			acc.AndNotWith(tmp)
		} else {
			acc.AndWith(tmp)
		}
		return nil
	}
	for _, cl := range spec.Include[1:] {
		if err := combine(cl, false); err != nil {
			acc.Recycle()
			return nil, err
		}
	}
	for _, cl := range spec.Exclude {
		if err := combine(cl, true); err != nil {
			acc.Recycle()
			return nil, err
		}
	}
	return acc, nil
}

// sizeManyCSet answers a batch on a CSetOnly interface: per-slot validation
// and compressed-path counting with the shared scaling/rounding, skipping
// the compiler and the dense tiled kernel (both would retain dense catalog
// sets a shard exists to avoid).
func (p *Interface) sizeManyCSet(reqs []EstimateRequest, rules targeting.Rules, queries *obs.Counter) ([]Estimate, error) {
	out := make([]Estimate, len(reqs))
	served := int64(0)
	for i := range reqs {
		eligible, impressions, err := p.queryParams(reqs[i], rules)
		if err != nil {
			out[i].Err = err
			continue
		}
		c, err := p.countMatchedRanges(reqs[i].Spec, nil)
		if err != nil {
			out[i].Err = err
			continue
		}
		served++
		v := float64(c) * p.ScaleFactor() * eligible
		if p.cfg.ImpressionEstimates {
			v *= impressions
		}
		out[i].Size = p.roundAndCount(v, queries)
	}
	if served > 0 {
		p.queryCount.Add(served)
	}
	return out, nil
}
