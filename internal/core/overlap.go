package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/targeting"
	"repro/internal/xrand"
)

// ErrUnsupportedByPlatform marks an analysis the platform's composition
// rules cannot express — e.g. Google provides no size statistics for the
// AND of two attribute options, so the overlap and union analyses cannot
// run there (paper §4.3 fn. 11; Table 1 omits Google).
var ErrUnsupportedByPlatform = errors.New("core: analysis not expressible on this platform")

// translateRuleError converts targeting-rule violations raised while
// intersecting compositions into ErrUnsupportedByPlatform.
func translateRuleError(err error) error {
	if errors.Is(err, targeting.ErrAndWithinFeature) || errors.Is(err, targeting.ErrTooManyClauses) {
		return fmt.Errorf("%w: %v", ErrUnsupportedByPlatform, err)
	}
	return err
}

// classCounts measures how many members of the class each spec reaches:
// the spec's audience intersected with RA_s, or with RA_¬s for excluded
// classes. One slot per spec, spec order preserved; the class-conditioned
// sizes are measured in one batch (one tiled kernel pass or one wire
// exchange), and the first failed slot in spec order fails the call.
func (a *Auditor) classCounts(specs []targeting.Spec, c Class) ([]int64, error) {
	base := c
	base.Excluded = false
	clauses := []targeting.Clause{base.baseClause()}
	if c.Excluded {
		clauses = base.otherClauses()
	}
	per := len(clauses)
	cond := make([]targeting.Spec, 0, len(specs)*per)
	for _, s := range specs {
		for _, cl := range clauses {
			cond = append(cond, a.scoped(s, cl))
		}
	}
	res := a.p.measureMany(nil, cond, nil)
	out := make([]int64, len(specs))
	for i := range specs {
		for j := 0; j < per; j++ {
			r := res[i*per+j]
			if r.Err != nil {
				return nil, translateRuleError(r.Err)
			}
			out[i] += r.Size
		}
	}
	return out, nil
}

// Overlap is one pairwise overlap between two skewed targeting audiences,
// conservatively measured as the intersection relative to the smaller
// audience (paper fn. 12).
type Overlap struct {
	// I and J index the input measurement slice.
	I, J int
	// Fraction is |A_i ∩ A_j ∩ class| / min(|A_i ∩ class|, |A_j ∩ class|),
	// in [0, 1] up to estimate rounding.
	Fraction float64
}

// OverlapConfig parameterizes pairwise overlap measurement.
type OverlapConfig struct {
	// MaxPairs bounds the number of measured pairs; all C(n,2) pairs are
	// measured when they fit, otherwise a uniform sample. Zero means 2,000.
	MaxPairs int
	// Seed drives pair sampling.
	Seed uint64
}

// PairwiseOverlaps measures the overlaps between the class audiences of the
// given targetings (the paper's top-100 analysis). Pairs whose smaller
// audience rounds to zero are skipped.
func (a *Auditor) PairwiseOverlaps(ms []Measurement, c Class, cfg OverlapConfig) ([]Overlap, error) {
	if cfg.MaxPairs == 0 {
		cfg.MaxPairs = 2000
	}
	n := len(ms)
	if n < 2 {
		return nil, errors.New("core: need at least two targetings for overlap")
	}
	// Class-restricted size of each audience — one batch over all inputs.
	specs := make([]targeting.Spec, n)
	for i, m := range ms {
		specs[i] = m.Spec
	}
	sizes, err := a.classCounts(specs, c)
	if err != nil {
		return nil, err
	}
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	if len(pairs) > cfg.MaxPairs {
		rng := xrand.New(xrand.Mix(cfg.Seed, uint64(n)))
		idx := rng.Sample(len(pairs), cfg.MaxPairs)
		sort.Ints(idx)
		sampled := make([]pair, 0, cfg.MaxPairs)
		for _, k := range idx {
			sampled = append(sampled, pairs[k])
		}
		pairs = sampled
	}
	// Drop the pairs whose smaller audience rounds to zero before measuring,
	// so the batched intersection set is exactly the query set the serial
	// loop would have issued.
	kept := pairs[:0]
	interSpecs := make([]targeting.Spec, 0, len(pairs))
	for _, pr := range pairs {
		small := sizes[pr.i]
		if sizes[pr.j] < small {
			small = sizes[pr.j]
		}
		if small <= 0 {
			continue
		}
		kept = append(kept, pr)
		interSpecs = append(interSpecs, targeting.And(ms[pr.i].Spec, ms[pr.j].Spec))
	}
	inters, err := a.classCounts(interSpecs, c)
	if err != nil {
		return nil, err
	}
	out := make([]Overlap, 0, len(kept))
	for k, pr := range kept {
		small := sizes[pr.i]
		if sizes[pr.j] < small {
			small = sizes[pr.j]
		}
		out = append(out, Overlap{I: pr.i, J: pr.j, Fraction: float64(inters[k]) / float64(small)})
	}
	return out, nil
}

// MedianOverlap runs PairwiseOverlaps and returns the median overlap
// fraction — the statistic of Table 1's first section.
func (a *Auditor) MedianOverlap(ms []Measurement, c Class, cfg OverlapConfig) (float64, error) {
	ovs, err := a.PairwiseOverlaps(ms, c, cfg)
	if err != nil {
		return 0, err
	}
	if len(ovs) == 0 {
		return 0, errors.New("core: no measurable overlap pairs")
	}
	fr := make([]float64, len(ovs))
	for i, o := range ovs {
		fr[i] = o.Fraction
	}
	sort.Float64s(fr)
	mid := len(fr) / 2
	if len(fr)%2 == 1 {
		return fr[mid], nil
	}
	return (fr[mid-1] + fr[mid]) / 2, nil
}

// UnionRecall is the inclusion–exclusion estimate of the class members
// reached by running ads across several targetings at once (paper §4.3,
// "Increasing recall"; Table 1 second section).
type UnionRecall struct {
	// Terms[k-1] is the inclusion–exclusion term of order k: the sum of the
	// class-restricted sizes of all k-way intersections.
	Terms []int64
	// Partials[k-1] is the union estimate truncated after order k; the
	// paper confirms these converge as higher orders are added.
	Partials []int64
	// Estimate is the final (converged or max-order) union recall, clamped
	// to be non-negative.
	Estimate int64
}

// Converged reports whether the last two partial sums agree within the
// given relative tolerance.
func (u UnionRecall) Converged(tol float64) bool {
	n := len(u.Partials)
	if n < 2 {
		return false
	}
	a, b := float64(u.Partials[n-2]), float64(u.Partials[n-1])
	if b == 0 {
		return a == 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}

// EstimateUnionRecall measures the total class recall of the union of the
// given targetings by inclusion–exclusion over their class-restricted
// audiences. Facebook and LinkedIn only expose and-of-ors, not
// or-of-ands, so the union size must be assembled from intersection
// queries exactly as the paper does (fn. 13). maxOrder bounds the depth
// (0 = full). Evaluation stops early once an order's term is zero, which is
// sound because estimate rounding is monotone.
func (a *Auditor) EstimateUnionRecall(ms []Measurement, c Class, maxOrder int) (UnionRecall, error) {
	n := len(ms)
	if n == 0 {
		return UnionRecall{}, errors.New("core: no targetings for union recall")
	}
	if maxOrder <= 0 || maxOrder > n {
		maxOrder = n
	}
	var out UnionRecall
	sign := int64(1)
	var acc, maxSingle int64
	for k := 1; k <= maxOrder; k++ {
		// Collect the order's C(n,k) intersections, then measure them as one
		// batch: each inclusion–exclusion order is a single kernel pass (or
		// wire exchange) instead of a serial query per combination.
		var combSpecs []targeting.Spec
		combinations(n, k, func(idx []int) {
			parts := make([]targeting.Spec, k)
			for j, i := range idx {
				parts[j] = ms[i].Spec
			}
			combSpecs = append(combSpecs, targeting.And(parts...))
		})
		vals, err := a.classCounts(combSpecs, c)
		if err != nil {
			return out, err
		}
		var term int64
		for _, v := range vals {
			if k == 1 && v > maxSingle {
				maxSingle = v
			}
			term += v
		}
		acc += sign * term
		sign = -sign
		out.Terms = append(out.Terms, term)
		out.Partials = append(out.Partials, acc)
		if term == 0 {
			break
		}
	}
	// Truncated inclusion–exclusion alternates around the true union
	// (Bonferroni); with rounded estimates a truncation can even go
	// negative. Clamp to the certain envelope: the union is at least the
	// largest single audience and at most the first-order sum.
	est := out.Partials[len(out.Partials)-1]
	if est < maxSingle {
		est = maxSingle
	}
	if first := out.Partials[0]; est > first {
		est = first
	}
	out.Estimate = est
	return out, nil
}
