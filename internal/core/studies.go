package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/estimate"
	"repro/internal/population"
	"repro/internal/stats"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// ConsistencyReport summarizes the estimate-consistency study (§3): the
// paper issued 100 back-to-back repeated calls for 20 random targeting
// options and 20 random compositions per platform and found the returned
// estimates consistent.
type ConsistencyReport struct {
	// Targetings is the number of distinct targetings probed.
	Targetings int
	// Repeats is the number of repeated calls per targeting.
	Repeats int
	// Inconsistent counts targetings whose repeated calls disagreed.
	Inconsistent int
}

// ConsistencyStudy re-issues repeated estimate calls against the *uncached*
// provider, mirroring the paper's §3 study. It probes nOptions random
// individual options plus nComps random compositions, repeats times each.
func (a *Auditor) ConsistencyStudy(nOptions, nComps, repeats int, seed uint64) (ConsistencyReport, error) {
	if nOptions <= 0 || repeats <= 1 {
		return ConsistencyReport{}, errors.New("core: consistency study needs options and >1 repeats")
	}
	rng := xrand.New(xrand.Mix(seed, xrand.HashString(a.p.Name()), 0xc0))
	var specs []targeting.Spec
	for _, id := range rng.Sample(len(a.attrNames), nOptions) {
		specs = append(specs, targeting.Attr(id))
	}
	for i := 0; i < nComps; i++ {
		if a.p.CrossFeature() && len(a.topicNames) > 0 {
			specs = append(specs, targeting.And(
				targeting.Attr(rng.Intn(len(a.attrNames))),
				targeting.Topic(rng.Intn(len(a.topicNames))),
			))
		} else {
			ids := rng.Sample(len(a.attrNames), 2)
			specs = append(specs, targeting.And(targeting.Attr(ids[0]), targeting.Attr(ids[1])))
		}
	}
	rep := ConsistencyReport{Targetings: len(specs), Repeats: repeats}
	for _, s := range specs {
		s = a.scoped(s, nil)
		first, err := a.p.Provider.Measure(s)
		if err != nil {
			return rep, err
		}
		for i := 1; i < repeats; i++ {
			v, err := a.p.Provider.Measure(s)
			if err != nil {
				return rep, err
			}
			if v != first {
				rep.Inconsistent++
				break
			}
		}
	}
	return rep, nil
}

// GranularityReport summarizes the estimate-granularity study (§3): the
// significant-digit structure and minimum floor inferred from a large
// number of distinct estimate calls.
type GranularityReport struct {
	// Samples is the number of estimates collected.
	Samples int
	// MaxSigDigitsSmall is the most significant digits seen among non-zero
	// estimates below 100,000.
	MaxSigDigitsSmall int
	// MaxSigDigitsLarge is the most significant digits seen at or above
	// 100,000.
	MaxSigDigitsLarge int
	// MinReported is the smallest non-zero estimate observed — the
	// platform's reporting floor (Facebook 1,000; Google 40; LinkedIn 300).
	MinReported int64
}

// granularityBatch is how many specs the granularity study measures per
// cache call. Sent one by one, its ~80,000 mostly-missing specs cost CPU a
// batch amortizes; sent whole, they raised cmd/figures' peak RSS by half.
const granularityBatch = 1024

// GranularityStudy collects up to target distinct estimates by sweeping
// individual options, demographic conditionings, and random compositions
// (the paper combined over 80,000 distinct calls per platform), then infers
// the platforms' rounding granularity. The specs are measured in
// generation order, granularityBatch at a time.
func (a *Auditor) GranularityStudy(target int, seed uint64) (GranularityReport, error) {
	if target <= 0 {
		return GranularityReport{}, errors.New("core: granularity study needs a positive target")
	}
	rng := xrand.New(xrand.Mix(seed, xrand.HashString(a.p.Name()), 0x9a))
	var values []int64
	batch := make([]targeting.Spec, 0, granularityBatch)
	flush := func() error {
		for _, r := range a.p.measureMany(nil, batch, nil) {
			if r.Err != nil {
				return r.Err
			}
			values = append(values, r.Size)
		}
		batch = batch[:0]
		return nil
	}
	// add queues spec AND cl (nil cl: spec alone), scoped.
	add := func(spec targeting.Spec, cl targeting.Clause) error {
		batch = append(batch, a.scoped(spec, cl))
		if len(batch) == granularityBatch {
			return flush()
		}
		return nil
	}
	collected := func() int { return len(values) + len(batch) }
	demoClauses := []targeting.Clause{nil}
	for g := 0; g < population.NumGenders; g++ {
		demoClauses = append(demoClauses, targeting.Clause{{Kind: targeting.KindGender, ID: g}})
	}
	for r := 0; r < population.NumAgeRanges; r++ {
		demoClauses = append(demoClauses, targeting.Clause{{Kind: targeting.KindAge, ID: r}})
	}
	// Pass 1: every option × every demographic conditioning.
	for id := 0; id < len(a.attrNames) && collected() < target; id++ {
		for _, cl := range demoClauses {
			if err := add(targeting.Attr(id), cl); err != nil {
				return GranularityReport{}, err
			}
			if collected() >= target {
				break
			}
		}
	}
	for id := 0; id < len(a.topicNames) && collected() < target; id++ {
		if err := add(targeting.Topic(id), nil); err != nil {
			return GranularityReport{}, err
		}
	}
	// Pass 2: random compositions until the target is met.
	for collected() < target {
		var spec targeting.Spec
		if a.p.CrossFeature() && len(a.topicNames) > 0 {
			spec = targeting.And(
				targeting.Attr(rng.Intn(len(a.attrNames))),
				targeting.Topic(rng.Intn(len(a.topicNames))),
			)
		} else {
			ids := rng.Sample(len(a.attrNames), 2)
			spec = targeting.And(targeting.Attr(ids[0]), targeting.Attr(ids[1]))
		}
		if err := add(spec, demoClauses[rng.Intn(len(demoClauses))]); err != nil {
			return GranularityReport{}, err
		}
	}
	if err := flush(); err != nil {
		return GranularityReport{}, err
	}

	rep := GranularityReport{Samples: len(values), MinReported: stats.MinNonZero(values)}
	var small, large []int64
	for _, v := range values {
		if v <= 0 {
			continue
		}
		if v < 100_000 {
			small = append(small, v)
		} else {
			large = append(large, v)
		}
	}
	rep.MaxSigDigitsSmall = stats.MaxSigDigits(small)
	rep.MaxSigDigitsLarge = stats.MaxSigDigits(large)
	return rep, nil
}

// LeastSkewed recomputes a measurement's representation ratio at the least
// skewed values consistent with the platform's rounding intervals (§3:
// "even allowing for the representation ratios to take their least skewed
// values (subject to the rounding ranges), we find very similar degrees of
// skew"). r is the platform's rounding scheme.
func (a *Auditor) LeastSkewed(m Measurement, c Class, r estimate.Rounder) (float64, error) {
	base := c
	base.Excluded = false
	tot, err := a.totals(nil, base)
	if err != nil {
		return 0, err
	}
	inLo, inHi := r.Interval(m.InClass)
	outLo, outHi := r.Interval(m.OutClass)
	ratioAt := func(tIn, tOut int64) float64 {
		v, err := repRatio(tIn, tOut, tot.in, tot.out)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	nominal := ratioAt(m.InClass, m.OutClass)
	if math.IsNaN(nominal) {
		return 0, fmt.Errorf("%w: unmeasurable at nominal estimates", ErrBelowFloor)
	}
	var least float64
	if nominal >= 1 {
		least = ratioAt(inLo, outHi) // pull toward 1 from above
		if !math.IsNaN(least) && least < 1 {
			least = 1
		}
	} else {
		least = ratioAt(inHi, outLo) // pull toward 1 from below
		if !math.IsNaN(least) && least > 1 {
			least = 1
		}
	}
	if math.IsNaN(least) || math.IsInf(least, 0) {
		return nominal, nil
	}
	if c.Excluded {
		if least == 0 {
			return math.Inf(1), nil
		}
		return 1 / least, nil
	}
	return least, nil
}
